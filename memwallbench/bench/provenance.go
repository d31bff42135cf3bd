package bench

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// Provenance stamps a result with what it was measured on. Results are
// comparable only when every host field matches (see SameHost).
type Provenance struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	BuildFlags string `json:"build_flags"`
	// Source is the SHA-256 of the checkout's Go sources, go.mod files
	// and default.pgo: the commit, for checkouts that are not git
	// repositories.
	Source string `json:"source"`
}

// HostProvenance describes this host and the source tree at root. The
// memwall processes a run starts inherit this process's environment, so
// they see the same GOMAXPROCS.
func HostProvenance(root, buildFlags string) (Provenance, error) {
	src, err := SourceDigest(root)
	if err != nil {
		return Provenance{}, err
	}
	return Provenance{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		BuildFlags: buildFlags,
		Source:     src,
	}, nil
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// SameHost reports an error naming every host field in which p and q
// differ. The source digest is deliberately not compared: a parent and
// a change are compared by design.
func (p Provenance) SameHost(q Provenance) error {
	var diffs []string
	check := func(field string, a, b any) {
		if a != b {
			diffs = append(diffs, fmt.Sprintf("%s %v vs %v", field, a, b))
		}
	}
	check("cpu_model", p.CPUModel, q.CPUModel)
	check("nproc", p.NProc, q.NProc)
	check("gomaxprocs", p.GOMAXPROCS, q.GOMAXPROCS)
	check("go_version", p.GoVersion, q.GoVersion)
	check("build_flags", p.BuildFlags, q.BuildFlags)
	if len(diffs) > 0 {
		return fmt.Errorf("provenance differs: %s", strings.Join(diffs, "; "))
	}
	return nil
}

// SourceDigest hashes every .go file, go.mod and default.pgo under root
// in lexical order, skipping hidden directories and build outputs.
func SourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "default.pgo" {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
