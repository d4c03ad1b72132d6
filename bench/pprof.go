package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// profile is the part of a pprof CPU profile the layer attribution
// reads: each sample's stack as function names, leaf first, with inlined
// frames expanded innermost first.
type profile struct {
	samples []profSample
}

type profSample struct {
	stack []string
	count int64
}

// parseProfile decodes a (possibly gzipped) pprof profile.proto. Only
// the fields attribution needs are read: samples (location ids and the
// first value, the sample count), locations (their line entries'
// function ids), functions (name string index) and the string table.
func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		raws    []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnNames = map[uint64]uint64{}   // function id -> string index
	)
	err := eachField(data, func(num int, v uint64, msg []byte) error {
		switch num {
		case 2: // Sample
			var s rawSample
			var values []uint64
			err := eachField(msg, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					return appendVarints(&values, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(values) > 0 {
				s.count = int64(values[0])
			}
			raws = append(raws, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(msg, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			err := eachField(msg, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnNames[id] = name
		case 6: // string_table
			strs = append(strs, string(msg))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: make([]profSample, 0, len(raws))}
	for _, r := range raws {
		s := profSample{count: r.count}
		for _, loc := range r.locs {
			for _, fn := range locFns[loc] {
				if idx := fnNames[fn]; idx < uint64(len(strs)) {
					s.stack = append(s.stack, strs[idx])
				}
			}
		}
		p.samples = append(p.samples, s)
	}
	return p, nil
}

var errTruncated = errors.New("pprof: truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			if v, n = uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			width := 8
			if wire == 5 {
				width = 4
			}
			if len(b) < width {
				return errTruncated
			}
			b = b[width:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("pprof: unsupported wire type %d", wire)
		}
		if err := fn(num, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, v uint64, packed []byte) error {
	if packed == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		packed = packed[n:]
	}
	return nil
}

// uvarint decodes a protobuf varint, returning the bytes read (0 when
// b ends early).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

var layerSet = func() map[string]bool {
	m := make(map[string]bool, len(layers))
	for _, l := range layers {
		m[l] = true
	}
	return m
}()

// layerOf names the layer a function belongs to, or "" when its frames
// are skipped: the runtime, the rest of the standard library, and any
// repro package outside the layer list.
func layerOf(fn string) string {
	// The package path ends at the first dot after its last slash;
	// receivers and type arguments, which may hold paths, come later.
	pkg := fn
	if i := strings.IndexAny(pkg, "[("); i >= 0 {
		pkg = pkg[:i]
	}
	slash := strings.LastIndexByte(pkg, '/') + 1
	if dot := strings.IndexByte(pkg[slash:], '.'); dot >= 0 {
		pkg = pkg[:slash+dot]
	}
	switch pkg {
	case "encoding/json":
		return "encoding_json"
	case "net/http":
		return "net_http"
	}
	if name, ok := strings.CutPrefix(pkg, "repro/internal/"); ok && layerSet[name] {
		return name
	}
	return ""
}

// attribute charges each sample to the innermost frame of a named layer
// (runtime when there is none) and returns each layer's share of all
// samples in percent, with the sample total.
func attribute(p *profile) (map[string]float64, int64) {
	counts := make(map[string]int64, len(layers))
	var total int64
	for _, s := range p.samples {
		layer := "runtime"
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		counts[layer] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = 100 * ratio(float64(counts[l]), float64(total))
	}
	return shares, total
}
