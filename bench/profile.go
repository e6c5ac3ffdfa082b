package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// stack is one CPU-profile sample: function names from the leaf outward
// (inlined frames expanded) and its sample count.
type stack struct {
	frames []string
	count  int64
}

// parseProfile decodes a gzipped pprof CPU profile (profile.proto) with a
// minimal protobuf reader, so the benchmark needs nothing beyond the
// standard library.
func parseProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		locs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcs   = map[uint64]uint64{}   // function id → name string index
	)
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := fields(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := fields(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{count: s.count}
		for _, l := range s.locs {
			for _, f := range locs[l] {
				if i := funcs[f]; i < uint64(len(strs)) {
					st.frames = append(st.frames, strs[i])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// fields calls fn for each field of a protobuf message: v holds a varint
// or fixed value, b a length-delimited payload.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n == 0 {
			return errors.New("truncated field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			v, n = uvarint(msg)
			if n == 0 {
				return errors.New("truncated varint")
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if key&7 == 5 {
				size = 4
			}
			if len(msg) < size {
				return errors.New("truncated fixed field")
			}
			for i := size - 1; i >= 0; i-- {
				v = v<<8 | uint64(msg[i])
			}
			msg = msg[size:]
		case 2:
			l, n := uvarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// uvarint decodes a varint, returning 0 bytes read when truncated.
func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// appendVarints appends a repeated varint field given either unpacked
// (one value v, b nil) or packed (b holds the values).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n == 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}

// Layers that CPU samples are charged to. The latsim layers are the
// module's packages, with sim split into the coroutine handoff, the
// event kernel and the resource model; bench is this benchmark's own
// code (the traced pass's counters).
var layers = []string{
	"handoff", "sim.kernel", "sim.resource",
	"cpu", "memsys", "dirset", "msync", "mem", "stats", "machine",
	"runner", "core", "config", "apps", "latsim.other", "bench",
	"runtime.gc", "runtime.sched", "runtime.other",
}

// schedFrames mark a sample the Go scheduler took outside any latsim frame.
var schedFrames = map[string]bool{
	"runtime.schedule": true, "runtime.findRunnable": true, "runtime.park_m": true,
	"runtime.mcall": true, "runtime.goschedImpl": true, "runtime.gosched_m": true,
}

// layerOf charges a sample to the innermost frame inside module latsim
// (or the benchmark itself); samples with none go to the runtime's GC
// workers, its scheduler, or the rest of the runtime.
func layerOf(frames []string) string {
	for _, f := range frames {
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
		if rest, ok := strings.CutPrefix(f, "latsim/internal/"); ok {
			return latsimLayer(rest)
		}
		if strings.HasPrefix(f, "latsim.") {
			return "latsim.other"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgsweep") ||
			strings.HasPrefix(f, "runtime.bgscavenge") {
			return "runtime.gc"
		}
	}
	for _, f := range frames {
		if schedFrames[f] {
			return "runtime.sched"
		}
	}
	return "runtime.other"
}

// latsimLayer maps a function name below latsim/internal/ to its layer.
// The package path ends at the first dot after its last slash; a generic
// instantiation can carry more slashes inside brackets, so those are cut
// first.
func latsimLayer(fn string) string {
	head := fn
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		head = fn[:i]
	}
	slash := strings.LastIndexByte(head, '/') + 1
	dot := strings.IndexByte(head[slash:], '.')
	if dot < 0 {
		return "latsim.other"
	}
	pkg, sym := fn[:slash+dot], fn[slash+dot+1:]
	top, _, _ := strings.Cut(pkg, "/")
	if top == "sim" {
		switch {
		case strings.HasPrefix(sym, "(*Coroutine)."):
			return "handoff"
		case strings.HasPrefix(sym, "(*Resource)."):
			return "sim.resource"
		}
		return "sim.kernel" // the event queue, its tasks and record pools
	}
	for _, l := range layers {
		if l == top {
			return l
		}
	}
	return "latsim.other"
}

// cpuShares returns each layer's share of the samples, in percent.
func cpuShares(stacks []stack) map[string]float64 {
	total := int64(0)
	by := map[string]int64{}
	for _, s := range stacks {
		by[layerOf(s.frames)] += s.count
		total += s.count
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if total > 0 {
			out[l] = 100 * float64(by[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}
