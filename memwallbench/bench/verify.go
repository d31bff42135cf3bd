package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// CheckOutput compares a command's standard output with its reference,
// byte for byte. The error names the first line that differs.
func CheckOutput(name string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl || i >= len(g) || i >= len(w) {
			return fmt.Errorf("%s: output differs from its reference at line %d: got %q, want %q", name, i+1, gl, wl)
		}
	}
	return fmt.Errorf("%s: output differs from its reference", name)
}

// forbiddenFlags are memwall's telemetry flags. Any of them attaches an
// observer, and Figure3Pool turns off its shared perfect run when one is
// attached (obs.Enabled), so a run that passed one would time a
// different program.
var forbiddenFlags = map[string]bool{"metrics": true, "events": true, "progress": true}

// GuardArgs refuses a memwall argument list that enables telemetry.
func GuardArgs(args []string) error {
	for _, a := range args {
		if !strings.HasPrefix(a, "-") {
			continue
		}
		name, _, _ := strings.Cut(strings.TrimLeft(a, "-"), "=")
		if forbiddenFlags[name] {
			return fmt.Errorf("memwall flag %s would turn off the shared perfect run; the benchmark never passes -metrics, -events or -progress", a)
		}
	}
	return nil
}

// ServeRefFile is the file in memwallbench/ref that holds the expected
// payload of every cell in CellSpace, as `layers oracle` computes it
// with a direct core.Decompose.
const ServeRefFile = "serve-cells.json"

// LoadServeRef reads the serve-mix reference payloads, keyed by cell
// key, and checks they cover CellSpace exactly.
func LoadServeRef(path string) (map[string]Payload, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading serve-mix reference: %w", err)
	}
	var ref map[string]Payload
	if err := json.Unmarshal(b, &ref); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	space := CellSpace()
	for _, c := range space {
		if _, ok := ref[c.Key()]; !ok {
			return nil, fmt.Errorf("%s has no payload for %s; regenerate it with `layers oracle`", path, c.Key())
		}
	}
	if len(ref) != len(space) {
		return nil, fmt.Errorf("%s holds %d cells, the schedule's cell space %d; regenerate it with `layers oracle`", path, len(ref), len(space))
	}
	return ref, nil
}
