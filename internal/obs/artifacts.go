package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// WriteArtifacts writes the report's two on-disk artifacts into dir
// (created if needed): <name>.report.json, the machine-readable report,
// and <name>.trace.json, the Chrome trace_event export for Perfetto.
// Returns the two paths.
func (rep *Report) WriteArtifacts(dir, name string) (reportPath, tracePath string, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", fmt.Errorf("obs: %w", err)
	}
	name = SanitizeName(name)
	reportPath = filepath.Join(dir, name+".report.json")
	b, err := EncodeReport(rep)
	if err != nil {
		return "", "", err
	}
	if err := os.WriteFile(reportPath, b, 0o644); err != nil {
		return "", "", fmt.Errorf("obs: %w", err)
	}
	tracePath = filepath.Join(dir, name+".trace.json")
	f, err := os.Create(tracePath)
	if err != nil {
		return "", "", fmt.Errorf("obs: %w", err)
	}
	defer f.Close()
	if err := rep.WriteChromeTrace(f); err != nil {
		return "", "", fmt.Errorf("obs: writing trace: %w", err)
	}
	return reportPath, tracePath, nil
}

// EncodeReport returns a report's file format: indented JSON and a
// newline. WriteArtifacts writes it, and so do obsdiff's baselines.
func EncodeReport(rep *Report) ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return nil, fmt.Errorf("obs: encoding report: %w", err)
	}
	return append(b, '\n'), nil
}

// ReadReport loads a report written by WriteArtifacts (or any JSON
// encoding of a Report), for re-rendering without re-simulating.
func ReadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	rep, err := DecodeReport(b)
	if err != nil {
		return nil, fmt.Errorf("obs: %s: %w", path, err)
	}
	return rep, nil
}

// DecodeReport decodes a report file's bytes. A report stamped with a
// schema version newer than this binary understands is refused outright
// — decoding it would silently drop the fields the newer writer cared
// about.
func DecodeReport(b []byte) (*Report, error) {
	var ver struct {
		Schema int `json:"schema_version"`
	}
	if err := json.Unmarshal(b, &ver); err != nil {
		return nil, fmt.Errorf("decoding: %w", err)
	}
	if ver.Schema > ReportSchema {
		return nil, fmt.Errorf("schema version %d, but this binary supports schema versions 0 (pre-v4) through %d — re-render it with the latsim build that wrote it",
			ver.Schema, ReportSchema)
	}
	rep := &Report{}
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("decoding: %w", err)
	}
	return rep, nil
}

// SanitizeName maps an arbitrary run label to a safe file-name stem.
func SanitizeName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, name)
}
