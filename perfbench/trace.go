package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps the traced run's spans in memory.  Spans are recorded by
// the benchmark's own code around each call into a layer; a span's
// Parent is the span that caused it and Op the operation it belongs to.
// A nil *tracer records nothing, which is the untraced run.
type tracer struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
}

type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id reserves a span identifier, so children can name a parent that is
// recorded after them.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

func (t *tracer) record(id, parent, op int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// call runs fn inside a span named name.
func (t *tracer) call(name string, parent, op int64, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.id()
	start := time.Now()
	fn()
	t.record(id, parent, op, name, start, time.Now())
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocMeter reads the runtime's cumulative allocation counters; the
// difference across an operation is the operation's allocation (plus
// whatever else the process allocated meanwhile, which in the traced
// rounds is only the operation's own goroutines).
type allocMeter struct{ ms runtime.MemStats }

func (a *allocMeter) read() (mallocs, bytes uint64) {
	runtime.ReadMemStats(&a.ms)
	return a.ms.Mallocs, a.ms.TotalAlloc
}

// --- CPU profile grouping -------------------------------------------------

// cpuGroups are the cpu_share.* groups, in report order.
var cpuGroups = []string{"kernel", "spmd", "mpsim", "shm", "iset", "gc", "sched", "other"}

// pkgGroups maps a dhpf package to its group; packages not listed fall
// in "other".  Native kernels live in codegen/gen (the checked-in
// corpus) and call codegen helpers.
var pkgGroups = map[string]string{
	"dhpf/internal/codegen/gen": "kernel",
	"dhpf/internal/codegen":     "kernel",
	"dhpf/internal/spmd":        "spmd",
	"dhpf/internal/mpsim":       "mpsim",
	"dhpf/internal/shm":         "shm",
	"dhpf/internal/iset":        "iset",
}

// gcFrames and schedFrames classify runtime self samples by the stack
// they occur on: garbage collection and allocation, or goroutine
// scheduling, parking and the synchronization it serves.
var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
	"runtime.mallocgc", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.stopTheWorld", "runtime.startTheWorld",
}

var schedFrames = []string{
	"runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
	"runtime.goready", "runtime.ready", "runtime.wakep", "runtime.startm",
	"runtime.stopm", "runtime.futex", "runtime.notesleep", "runtime.notewakeup",
	"runtime.mcall", "runtime.gosched", "runtime.goschedImpl", "runtime.newproc",
	"runtime.goexit", "runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
	"runtime.semacquire", "runtime.semrelease", "runtime.lock", "runtime.unlock",
	"runtime.runqsteal", "runtime.stealWork", "runtime.procyield", "runtime.osyield",
	"runtime.usleep", "runtime.netpoll", "sync.(*Mutex)", "sync.(*RWMutex)",
	"sync.(*WaitGroup)", "sync.(*Cond)", "sync.runtime_",
}

// funcPackage returns the import path of a symbol name such as
// "dhpf/internal/spmd.(*rankExec).run".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

func hasFrame(stack []string, prefixes []string) bool {
	for _, f := range stack {
		for _, p := range prefixes {
			if strings.HasPrefix(f, p) {
				return true
			}
		}
	}
	return false
}

// cpuGroup assigns one sample's self time (its leaf frame, stack[0])
// to a group: a dhpf package's own group; otherwise gc or sched by the
// stack, else other.
func cpuGroup(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	pkg := funcPackage(stack[0])
	if g, ok := pkgGroups[pkg]; ok {
		return g
	}
	if strings.HasPrefix(pkg, "dhpf") {
		return "other"
	}
	switch {
	case hasFrame(stack, gcFrames):
		return "gc"
	case hasFrame(stack, schedFrames):
		return "sched"
	}
	return "other"
}

// cpuProfile collects a CPU profile in memory between start and stop.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends profiling and returns the self-sample count per group plus
// the total.
func (p *cpuProfile) stop() (map[string]int64, int64, error) {
	pprof.StopCPUProfile()
	stacks, err := parseProfile(&p.buf)
	if err != nil {
		return nil, 0, err
	}
	by, total := groupSamples(stacks)
	return by, total, nil
}

// benchFrames mark samples of the benchmark's own per-operation work:
// the correctness gates (which gather arrays through spmd) and the
// allocation counters.  They are left out of every group and the total.
var benchFrames = []string{"main.checkStep", "main.(*allocMeter).read", "main.(*tracer)."}

func groupSamples(stacks []weightedStack) (map[string]int64, int64) {
	by := map[string]int64{}
	for _, g := range cpuGroups {
		by[g] = 0
	}
	var total int64
	for _, s := range stacks {
		if hasFrame(s.frames, benchFrames) {
			continue
		}
		by[cpuGroup(s.frames)] += s.n
		total += s.n
	}
	return by, total
}

// weightedStack is one profile sample: its frames leaf first (inlined
// frames expanded) and its sample count.
type weightedStack struct {
	frames []string
	n      int64
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what grouping needs: each sample's count and the
// function names of its frames.
func parseProfile(r io.Reader) ([]weightedStack, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs []uint64
		n    int64
	}
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id → function ids, leaf first
		fnName  = map[uint64]int64{}    // function id → string index
	)
	err = pbFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var vals []uint64
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbAppendUints(s.locs, v, b)
				case 2:
					vals = pbAppendUints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.n = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFns[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]weightedStack, 0, len(samples))
	for _, s := range samples {
		var frames []string
		for _, l := range s.locs {
			for _, fn := range locFns[l] {
				if i := fnName[fn]; i >= 0 && int(i) < len(strs) {
					frames = append(frames, strs[i])
				}
			}
		}
		out = append(out, weightedStack{frames: frames, n: s.n})
	}
	return out, nil
}

// pbFields walks a protobuf message, calling fn with each field number
// and either its varint value or its length-delimited bytes.
func pbFields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := pbVarint(data)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = pbVarint(data)
			if n <= 0 {
				return fmt.Errorf("bad varint in field %d", field)
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return fmt.Errorf("short fixed64 in field %d", field)
			}
			data = data[8:]
		case 2:
			l, n := pbVarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("bad length in field %d", field)
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return fmt.Errorf("short fixed32 in field %d", field)
			}
			data = data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d in field %d", wire, field)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// pbAppendUints appends a repeated integer field given either unpacked
// (one varint v) or packed (bytes b of varints).
func pbAppendUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
