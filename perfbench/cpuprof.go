package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with a minimal protobuf decoder, and charges each
// sample to a layer of this module.

// modulePrefix is the import path of the module under test; the facade
// package itself is "dard".
const modulePrefix = "dard"

// Layer buckets that are not packages.
const (
	layerBackground = "runtime.bg" // no frame from the module
	layerBench      = "bench"      // the benchmark's own frames, e.g. its forced GCs
)

// layerOf names the layer a fully qualified function belongs to, or ""
// when the function is outside the module. Internal packages are layers
// under their package name; the facade is "facade".
func layerOf(fn string) string {
	// Function names are "<import path>.<name>", where the import path
	// may contain dots only before its last slash; type arguments of a
	// generic instantiation may hold further paths, so drop them first.
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	pkgEnd := strings.LastIndexByte(fn, '/') + 1
	dot := strings.IndexByte(fn[pkgEnd:], '.')
	if dot < 0 {
		return ""
	}
	pkg := fn[:pkgEnd+dot]
	switch {
	case pkg == modulePrefix:
		return "facade"
	case strings.HasPrefix(pkg, modulePrefix+"/internal/"):
		rest := pkg[len(modulePrefix+"/internal/"):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[:i]
		}
		return rest
	}
	return ""
}

// attribute charges one sample's stack, innermost frame first, to the
// layer of its innermost module frame, so runtime work such as map
// access and allocation is charged to the layer that asked for it. A
// stack with no module frame is the benchmark's own when a main-package
// frame is on it, and background runtime work otherwise.
func attribute(stack []string) string {
	bench := false
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
		if strings.HasPrefix(fn, "main.") {
			bench = true
		}
	}
	if bench {
		return layerBench
	}
	return layerBackground
}

// addCPUByLayer parses a gzipped CPU profile and adds its CPU seconds,
// times scale, to each layer's total in into.
func addCPUByLayer(into map[string]float64, gz []byte, scale float64) error {
	samples, err := parseProfile(gz)
	if err != nil {
		return err
	}
	for _, s := range samples {
		into[attribute(s.stack)] += float64(s.nanos) / 1e9 * scale
	}
	return nil
}

// profSample is one decoded sample: its stack, innermost first, and the
// CPU time it stands for.
type profSample struct {
	stack []string
	nanos int64
}

// parseProfile decodes the fields of profile.proto the attribution
// needs: samples (location IDs and values), locations (lines with
// function IDs, innermost inlined frame first), functions (name string
// index) and the string table. The CPU time of a sample is its
// "cpu"/"nanoseconds" value.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location ID → function IDs, innermost first
		funcNames = map[uint64]int64{}    // function ID → string index
		strs      []string
		typeIdx   []int64 // sample_type: type string index per value
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 {
					typeIdx = append(typeIdx, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n, w int, v uint64, b []byte) error {
				switch n {
				case 1:
					vs, err := varints(w, v, b)
					s.locs = append(s.locs, vs...)
					return err
				case 2:
					vs, err := varints(w, v, b)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
					return err
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	// Pick the value that counts CPU nanoseconds.
	valIdx := -1
	for i, si := range typeIdx {
		if si >= 0 && int(si) < len(strs) && strs[si] == "cpu" {
			valIdx = i
		}
	}
	if valIdx < 0 {
		return nil, fmt.Errorf("profile: no cpu sample type")
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if valIdx >= len(s.values) {
			return nil, fmt.Errorf("profile: sample with %d values", len(s.values))
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				stack = append(stack, str(funcNames[fn]))
			}
		}
		out = append(out, profSample{stack: stack, nanos: s.values[valIdx]})
	}
	return out, nil
}

// eachField walks the top-level fields of one protobuf message, handing
// fn the field number, wire type, and the varint value or the
// length-delimited bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var (
			v    uint64
			data []byte
		)
		switch wire {
		case 0: // varint
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", num)
			}
			b = b[n:]
		case 1: // fixed64
			if len(b) < 8 {
				return fmt.Errorf("short fixed64 in field %d", num)
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad length in field %d", num)
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5: // fixed32
			if len(b) < 4 {
				return fmt.Errorf("short fixed32 in field %d", num)
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, num)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated varint field that arrived either as one
// unpacked value or as a packed run.
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == 0 {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, fmt.Errorf("bad packed varint")
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
