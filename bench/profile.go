package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU-profile attribution.  The traced pass runs under runtime/pprof;
// every sample is charged to the innermost repro/internal/<pkg> frame
// on its stack, so memclr, growslice and mallocgc land on the package
// that called them.  A stack with no repro frame is the Go runtime's
// own work (GC background workers, the scheduler) when its leaf is a
// runtime function, and "other" otherwise (the benchmark's own load
// generator, net/http outside a handler).
//
// The standard library has no importable pprof reader, so this file
// decodes the few profile.proto fields attribution needs.

// stackSample is one profile sample: function names leaf first, with
// inlined frames expanded (innermost first), and its sample count.
type stackSample struct {
	Funcs []string
	Count int64
}

const reproPrefix = "repro/internal/"

// layerOfFunc maps a function name to its layer, or "" for a function
// outside the product.
func layerOfFunc(fn string) string {
	rest, ok := strings.CutPrefix(fn, reproPrefix)
	if !ok {
		return ""
	}
	if strings.HasPrefix(rest, "apps/") {
		return "apps"
	}
	end := strings.IndexAny(rest, "./")
	if end < 0 {
		return ""
	}
	pkg := rest[:end]
	for _, l := range layers {
		if l == pkg {
			return pkg
		}
	}
	// A product package that is not a layer of its own (internal/stats):
	// keep walking outward to the layer that called it.
	return ""
}

// layerOfStack attributes one stack (leaf first).
func layerOfStack(funcs []string) string {
	for _, fn := range funcs {
		if l := layerOfFunc(fn); l != "" {
			return l
		}
	}
	if len(funcs) > 0 && strings.HasPrefix(funcs[0], "runtime.") {
		return "runtime"
	}
	return "other"
}

// cpuShares turns samples into per-layer shares summing to 1.  Every
// layer is present in the result; with no samples every share is 0.
func cpuShares(samples []stackSample) map[string]float64 {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[layerOfStack(s.Funcs)] += s.Count
		total += s.Count
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			shares[l] = float64(counts[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares
}

// protoField is one decoded field of a protobuf message.
type protoField struct {
	Num   int
	Wire  int
	Value uint64 // varint and fixed-width fields
	Data  []byte // length-delimited fields
}

var errProto = errors.New("malformed profile")

func readVarint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errProto
}

// readFields walks one message.
func readFields(b []byte, fn func(protoField) error) error {
	for len(b) > 0 {
		key, rest, err := readVarint(b)
		if err != nil {
			return err
		}
		b = rest
		f := protoField{Num: int(key >> 3), Wire: int(key & 7)}
		switch f.Wire {
		case 0:
			if f.Value, b, err = readVarint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			n, rest, err := readVarint(b)
			if err != nil || uint64(len(rest)) < n {
				return errProto
			}
			f.Data, b = rest[:n], rest[n:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// repeatedVarints appends a repeated integer field's values, packed or not.
func repeatedVarints(dst []uint64, f protoField) ([]uint64, error) {
	if f.Wire == 0 {
		return append(dst, f.Value), nil
	}
	b := f.Data
	for len(b) > 0 {
		v, rest, err := readVarint(b)
		if err != nil {
			return nil, err
		}
		dst, b = append(dst, v), rest
	}
	return dst, nil
}

// parseProfile decodes a (gzipped) pprof CPU profile into stack samples.
// The sample count is the profile's first value ("samples/count").
func parseProfile(data []byte) ([]stackSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		raw       []rawSample
		locations = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName  = map[uint64]uint64{}   // function id -> string table index
		strtab    []string
	)
	err := readFields(data, func(f protoField) error {
		if f.Wire != 2 {
			return nil
		}
		switch f.Num {
		case 2: // Sample
			var s rawSample
			var values []uint64
			err := readFields(f.Data, func(g protoField) (err error) {
				switch g.Num {
				case 1:
					s.locs, err = repeatedVarints(s.locs, g)
				case 2:
					values, err = repeatedVarints(values, g)
				}
				return err
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			raw = append(raw, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := readFields(f.Data, func(g protoField) error {
				switch {
				case g.Num == 1 && g.Wire == 0:
					id = g.Value
				case g.Num == 4 && g.Wire == 2: // Line
					return readFields(g.Data, func(h protoField) error {
						if h.Num == 1 && h.Wire == 0 {
							fns = append(fns, h.Value)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locations[id] = fns
		case 5: // Function
			var id, name uint64
			err := readFields(f.Data, func(g protoField) error {
				if g.Wire == 0 {
					switch g.Num {
					case 1:
						id = g.Value
					case 2:
						name = g.Value
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strtab = append(strtab, string(f.Data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(raw))
	for _, s := range raw {
		st := stackSample{Count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locations[loc] {
				if idx := funcName[fn]; idx < uint64(len(strtab)) {
					st.Funcs = append(st.Funcs, strtab[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}
