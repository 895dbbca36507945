package main

import (
	"math"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// probeRefSeconds is the CPU time of one probe slice at the reference
// host speed: the median slice on the 2-vCPU KVM guest (Intel Xeon) the
// bounds were set on. The end-to-end timings are CPU seconds scaled to
// that speed.
const probeRefSeconds = 0.005

// probeEvery is how often, in wall time, a running arm yields to one
// probe slice: about a tenth of the arm's time goes to the probe.
const probeEvery = 50 * time.Millisecond

// speedProbe measures how fast the host runs a fixed piece of work, so
// that the CPU time of the program can be scaled to a reference host
// speed. On a shared host the same arm's CPU time varies by 10–20%
// between rounds a few seconds apart (contention for caches, memory and
// the physical core slows the guest's CPU without taking it away), and
// the probe slows down with it. Its work is fixed benchmark code that no
// change to the program alters: a pointer chase over 8 MB, map lookups,
// a sort and floating-point math, the kinds of work the simulator does.
// A slice allocates nothing, so it does not move the program's garbage
// collection.
type speedProbe struct {
	chase []int32
	table map[uint64]uint64
	src   []float64
	buf   []float64
	pos   int32
	sink  float64

	next time.Time
	// slices and cpu count the slices run since the last reset and
	// their CPU seconds.
	slices int
	cpu    float64
}

func newSpeedProbe() *speedProbe {
	x := uint64(0x9e3779b97f4a7c15)
	rnd := func() uint64 { // splitmix64
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	const n = 1 << 21
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(rnd() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	p := &speedProbe{
		chase: make([]int32, n),
		table: make(map[uint64]uint64, 1<<16),
		src:   make([]float64, 4096),
		buf:   make([]float64, 4096),
	}
	// One cycle through all entries in random order.
	for i := range perm {
		p.chase[perm[i]] = perm[(i+1)%n]
	}
	for i := 0; i < 1<<16; i++ {
		p.table[rnd()%(1<<17)] = rnd()
	}
	for i := range p.src {
		p.src[i] = float64(rnd()>>11) / (1 << 53)
	}
	return p
}

// work is one slice of the probe's fixed work.
func (p *speedProbe) work() {
	pos := p.pos
	for i := 0; i < 20000; i++ {
		pos = p.chase[pos]
	}
	p.pos = pos
	var sum uint64
	for i := uint64(0); i < 20000; i++ {
		sum += p.table[(i*2654435761)%(1<<17)]
	}
	copy(p.buf, p.src)
	slices.Sort(p.buf)
	f := 0.0
	for i := 0; i < 20000; i++ {
		f += math.Exp(-p.src[i&4095]) * math.Log1p(p.src[(i*7)&4095])
	}
	p.sink += f + float64(sum) + p.buf[7]
}

// run runs n slices and counts their CPU time.
func (p *speedProbe) run(n int) {
	for i := 0; i < n; i++ {
		start := cpuSeconds()
		p.work()
		p.cpu += cpuSeconds() - start
		p.slices++
	}
	p.next = time.Now().Add(probeEvery)
}

// tick runs one slice when one is due; the first tick after a reset
// always runs one.
func (p *speedProbe) tick() {
	if p != nil && !time.Now().Before(p.next) {
		p.run(1)
	}
}

func (p *speedProbe) reset() {
	p.slices, p.cpu, p.next = 0, 0, time.Time{}
}

// scale converts CPU seconds measured alongside the slices since the
// last reset to seconds at the reference host speed.
func (p *speedProbe) scale() float64 {
	return probeRefSeconds / (p.cpu / float64(p.slices))
}

// cpuSeconds is the CPU time the process has used so far, over all its
// threads (clock_gettime(CLOCK_PROCESS_CPUTIME_ID), exact to the
// nanosecond, unlike getrusage's tick-sampled split). The end-to-end
// timings are differences of it rather than of wall time: on a virtual
// machine whose CPUs are shared with other guests, wall time also counts
// the time the host gave the CPUs to others (steal time), and it varied
// about twice as much as CPU time between the rounds of one run.
func cpuSeconds() float64 {
	var ts syscall.Timespec
	const clockProcessCPUTime = 2
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime,
		uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(errno)
	}
	return float64(ts.Nano()) / 1e9
}
