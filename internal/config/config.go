// Package config parses the framework's configuration file (§II-A): the
// system configuration (processor count) and the application configuration
// (particle mapping algorithm, projection filter, element grid) that the
// Dynamic Workload Generator combines with a particle trace. The format is
// JSON; unknown fields are rejected to catch typos.
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"picpredict"
)

// File is the configuration-file schema.
type File struct {
	// Ranks is the target system's processor count R.
	Ranks int `json:"ranks"`
	// Mapping is the particle mapping algorithm: element, bin, hilbert,
	// weighted, or ohhelp.
	Mapping string `json:"mapping"`
	// FilterRadius is the projection filter size (absolute length).
	FilterRadius float64 `json:"filterRadius"`
	// RelaxedBins removes the processor-count limit on bin splitting.
	RelaxedBins bool `json:"relaxedBins,omitempty"`
	// MidpointSplit switches bin cuts to spatial midpoints.
	MidpointSplit bool `json:"midpointSplit,omitempty"`
	// Elements is the application's element grid (needed by every mapping
	// but bin).
	Elements [3]int `json:"elements,omitempty"`
	// GridN is the grid resolution per element.
	GridN int `json:"gridN,omitempty"`
}

// Load parses a configuration file from r.
func Load(r io.Reader) (File, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var f File
	if err := dec.Decode(&f); err != nil {
		return File{}, fmt.Errorf("config: %w", err)
	}
	if err := f.Validate(); err != nil {
		return File{}, err
	}
	return f, nil
}

// LoadPath parses the configuration file at path.
func LoadPath(path string) (File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return File{}, fmt.Errorf("config: %w", err)
	}
	defer fh.Close()
	return Load(fh)
}

// Validate reports the first invalid field.
func (f File) Validate() error {
	if f.Ranks <= 0 {
		return fmt.Errorf("config: ranks must be positive, got %d", f.Ranks)
	}
	if f.Mapping == "" {
		return fmt.Errorf("config: mapping is required")
	}
	if _, err := picpredict.ParseMappingKind(f.Mapping); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if f.FilterRadius < 0 {
		return fmt.Errorf("config: negative filterRadius %g", f.FilterRadius)
	}
	if needsMesh(f.Mapping) && f.Elements == ([3]int{}) {
		return fmt.Errorf("config: mapping %q requires elements", f.Mapping)
	}
	return nil
}

// needsMesh reports whether the mapping is anchored on the element grid:
// every mapping but bin is.
func needsMesh(mapping string) bool {
	return picpredict.MappingKind(mapping) != picpredict.MappingBin
}

// WorkloadOptions converts the file to generator options.
func (f File) WorkloadOptions() picpredict.WorkloadOptions {
	return picpredict.WorkloadOptions{
		Ranks:         f.Ranks,
		Mapping:       picpredict.MappingKind(f.Mapping),
		FilterRadius:  f.FilterRadius,
		RelaxedBins:   f.RelaxedBins,
		MidpointSplit: f.MidpointSplit,
	}
}

// ApplyMesh attaches the configured element grid to a trace when the
// mapping requires it.
func (f File) ApplyMesh(t *picpredict.Trace) {
	if needsMesh(f.Mapping) {
		n := f.GridN
		if n <= 0 {
			n = 1
		}
		t.WithMesh(f.Elements[0], f.Elements[1], f.Elements[2], n)
	}
}
