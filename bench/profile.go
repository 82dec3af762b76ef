package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// A stdlib-only reader for the gzip'd profile.proto runtime/pprof writes,
// keeping just what the fold needs: per sample its weight and its stack
// as function names, leaf first.

type profSample struct {
	stack  []string // function names, leaf first; inlined frames expanded
	weight int64    // the sample's last value (cpu nanoseconds for a CPU profile)
}

// pbuf is a cursor over protobuf wire format.
type pbuf struct{ b []byte }

var errProto = errors.New("malformed profile.proto")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errProto
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errProto
}

// field reads the next field: its number, and either its varint value
// (wire type 0) or its bytes (wire type 2). Fixed-width fields are skipped
// as empty byte fields; profile.proto has none the fold reads.
func (p *pbuf) field() (num int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err == nil {
			if n > uint64(len(p.b)) {
				return 0, 0, nil, errProto
			}
			data, p.b = p.b[:n], p.b[n:]
		}
	default:
		err = errProto
	}
	return num, v, data, err
}

func (p *pbuf) skip(n int) error {
	if n > len(p.b) {
		return errProto
	}
	p.b = p.b[n:]
	return nil
}

// uints reads a repeated integer field that may arrive packed (data) or
// one element at a time (v).
func uints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// parseProfile decodes a (possibly gzip'd) profile.proto into samples.
func parseProfile(raw []byte) ([]profSample, error) {
	if len(raw) > 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	type rawSample struct {
		locs   []uint64
		weight int64
	}
	var (
		samples []rawSample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost inlined callee first
		funcs   = map[uint64]uint64{}   // function id -> name's string-table index
		strs    []string
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		num, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s rawSample
			var vals []uint64
			m := pbuf{data}
			for len(m.b) > 0 {
				n, v, d, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, v, d)
				case 2:
					vals, err = uints(vals, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(vals) > 0 {
				s.weight = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			m := pbuf{data}
			for len(m.b) > 0 {
				n, v, d, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					l := pbuf{d}
					for len(l.b) > 0 {
						ln, lv, _, err := l.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			m := pbuf{data}
			for len(m.b) > 0 {
				n, v, _, err := m.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{weight: s.weight}
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				idx := funcs[fn]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("%w: string index %d out of range", errProto, idx)
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// foldClasses lists every share.<class> the fold can produce, so a class
// with no samples is still reported (as 0).
var foldClasses = append(append([]string{"srmcoll"}, layerClasses...), "harness", "rt.gc", "rt.sched", "rt.other")

// layerClasses are the packages under srmcoll/internal with a class of
// their own.
var layerClasses = []string{
	"sim", "machine", "shm", "rma", "mpi", "baseline", "core", "scale",
	"dtype", "tree", "tune", "bufpool", "fault", "trace",
}

// classOf names the class a function belongs to: its srmcoll package for
// module code, "harness" for bench/ itself, "" for everything else (the
// runtime, the standard library).
func classOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."):
		return "harness"
	case strings.HasPrefix(fn, "srmcoll/internal/"):
		pkg, _, _ := strings.Cut(fn[len("srmcoll/internal/"):], ".")
		if slices.Contains(layerClasses, pkg) {
			return pkg
		}
		return "srmcoll" // check, model, ...: module code outside the named layers
	case strings.HasPrefix(fn, "srmcoll."):
		return "srmcoll"
	}
	return ""
}

// runtimeClass sorts a stack with no module frame by what it was doing:
// background collection, the scheduler, or anything else.
func runtimeClass(stack []string) string {
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.gcBgMarkWorker"), strings.HasPrefix(fn, "runtime.bgsweep"),
			strings.HasPrefix(fn, "runtime.bgscavenge"), strings.HasPrefix(fn, "runtime.gcDrain"),
			strings.HasPrefix(fn, "runtime.gcMark"), strings.HasPrefix(fn, "runtime.gcStart"),
			strings.HasPrefix(fn, "runtime.gcAssist"), strings.HasPrefix(fn, "runtime.gcSweep"):
			return "rt.gc"
		}
	}
	for _, fn := range stack {
		switch {
		case strings.HasPrefix(fn, "runtime.schedule"), strings.HasPrefix(fn, "runtime.findRunnable"),
			strings.HasPrefix(fn, "runtime.park_m"), strings.HasPrefix(fn, "runtime.mcall"),
			strings.HasPrefix(fn, "runtime.mstart"), strings.HasPrefix(fn, "runtime.goschedImpl"),
			strings.HasPrefix(fn, "runtime.goexit0"), strings.HasPrefix(fn, "runtime.sysmon"),
			strings.HasPrefix(fn, "runtime.stopm"), strings.HasPrefix(fn, "runtime.startm"):
			return "rt.sched"
		}
	}
	return "rt.other"
}

// foldProfile gives each sample to the deepest frame that belongs to
// module srmcoll (or to the harness), so memmove under machine.Memcpy
// counts for machine and a channel hand-off under (*Proc).park for sim: a
// class's share is its self time, without the layers it calls. Samples
// with no module frame are split by runtimeClass. Shares sum to 1.
func foldProfile(samples []profSample) map[string]float64 {
	shares := make(map[string]float64, len(foldClasses))
	for _, c := range foldClasses {
		shares[c] = 0
	}
	var total float64
	for _, s := range samples {
		class := ""
		for _, fn := range s.stack {
			if class = classOf(fn); class != "" {
				break
			}
		}
		if class == "" {
			class = runtimeClass(s.stack)
		}
		shares[class] += float64(s.weight)
		total += float64(s.weight)
	}
	if total > 0 {
		for c := range shares {
			shares[c] /= total
		}
	}
	return shares
}
