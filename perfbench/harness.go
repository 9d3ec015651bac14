package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"github.com/tpset/tpset/internal/server"
)

// harness is one server.Server behind a loopback HTTP listener, plus the
// client the workload drives it with (at most two connections, matching
// the two CPUs the benchmark is sized for).
type harness struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	client *http.Client
	served chan error
	closed sync.Once
}

func startHarness(srv *server.Server) (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h := &harness{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     2,
			MaxIdleConnsPerHost: 2,
			DisableCompression:  true,
		}},
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	return h, nil
}

// close stops the listener, waits for the serving goroutine to exit and
// drops the server, so its catalog can be collected. Later calls do
// nothing.
func (h *harness) close() {
	h.closed.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := h.hs.Shutdown(ctx); err != nil {
			h.hs.Close()
		}
		<-h.served
		h.client.CloseIdleConnections()
		h.srv = nil
	})
}

// do sends one request and returns the status and the whole body. An
// error with status 0 means no response arrived; an error with a status
// means the body broke off (see outcome).
func (h *harness) do(method, path string, body []byte) (int, []byte, error) {
	return h.doReader(method, path, bytes.NewReader(body), int64(len(body)))
}

// doReader is do with a body of size bytes read from r.
func (h *harness) doReader(method, path string, r io.Reader, size int64) (int, []byte, error) {
	req, err := http.NewRequest(method, h.base+path, r)
	if err != nil {
		return 0, nil, err
	}
	req.ContentLength = size
	req.Header.Set("Content-Type", "application/json")
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// outcome sorts what went wrong with one request. A transport failure
// (no status arrived) or a refusal under load (429, 503, 504) is a failed
// request and comes back as failure. Anything else after a status is the
// server's answer: a body that broke off, or a status other than the
// wanted ones, comes back as a wrong-answer message.
func outcome(status int, err error, want ...int) (wrong string, failure error) {
	switch {
	case err != nil && status == 0:
		return "", err
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout:
		return "", fmt.Errorf("refused: status %d", status)
	case err != nil:
		return fmt.Sprintf("status %d, body broke off: %v", status, err), nil
	}
	for _, w := range want {
		if status == w {
			return "", nil
		}
	}
	return fmt.Sprintf("status %d", status), nil
}

// serverMetrics reads GET /metrics.
func (h *harness) serverMetrics() (server.Metrics, error) {
	var m server.Metrics
	status, body, err := h.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return m, err
	}
	if status != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: status %d", status)
	}
	return m, json.Unmarshal(body, &m)
}

func queryBody(q server.QueryRequest) []byte {
	b, err := json.Marshal(q)
	if err != nil {
		panic(err) // a QueryRequest always marshals
	}
	return b
}

// phaseStats are the process-wide counters a measured phase is
// attributed from: runtime/metrics deltas plus rusage CPU time, and the
// peak heap sampled while the phase runs.
type phaseStats struct {
	start, end time.Time
	cpu0, cpu1 time.Duration
	host0      hostTicks
	host1      hostTicks
	rt0, rt1   []metrics.Sample
	heap       []float64 // heap in use, sampled every 2 ms
	stop       chan struct{}
	sampled    sync.WaitGroup
}

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/memory/classes/heap/objects:bytes",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startPhase begins a measured phase: it collects garbage so every phase
// starts from the same heap, then samples the heap in use every 2 ms.
func startPhase() *phaseStats {
	runtime.GC()
	p := &phaseStats{stop: make(chan struct{})}
	p.rt0 = readRuntime()
	p.host0 = readHostTicks()
	p.cpu0 = processCPU()
	p.start = time.Now()
	p.sampled.Add(1)
	go func() {
		defer p.sampled.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			p.heap = append(p.heap, float64(s[0].Value.Uint64()))
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

func (p *phaseStats) finish() {
	p.end = time.Now()
	p.cpu1 = processCPU()
	p.host1 = readHostTicks()
	p.rt1 = readRuntime()
	close(p.stop)
	p.sampled.Wait()
}

func (p *phaseStats) wall() float64 { return p.end.Sub(p.start).Seconds() }

func (p *phaseStats) delta(i int) float64 {
	a, b := p.rt0[i].Value, p.rt1[i].Value
	if a.Kind() == metrics.KindUint64 {
		return float64(b.Uint64() - a.Uint64())
	}
	return b.Float64() - a.Float64()
}

func (p *phaseStats) allocBytes() float64 { return p.delta(0) }

// gcCPUFrac is the share of the process's CPU time spent in the GC.
func (p *phaseStats) gcCPUFrac() float64 {
	total := p.delta(2)
	if total <= 0 {
		return 0
	}
	return p.delta(1) / total
}

// cpuUtil is process CPU time over wall time times GOMAXPROCS.
func (p *phaseStats) cpuUtil() float64 {
	return p.cpuSeconds() / (p.wall() * float64(runtime.GOMAXPROCS(0)))
}

// hostTicks are the machine-wide CPU time counters of /proc/stat's cpu
// line: all states together, and the share the hypervisor ran other
// guests on this machine's CPUs (steal).
type hostTicks struct{ total, steal uint64 }

func readHostTicks() hostTicks {
	var t hostTicks
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			break
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealPct is the share of the machine's CPU time during the phase, in
// per cent, that the hypervisor gave to other guests. Wall-clock figures
// of the phase are slower by about this share; CPU time leaves it out.
func (p *phaseStats) stealPct() float64 {
	return 100 * safeDiv(float64(p.host1.steal-p.host0.steal), float64(p.host1.total-p.host0.total))
}

func (p *phaseStats) cpuSeconds() float64 { return (p.cpu1 - p.cpu0).Seconds() }

// liveStartMB is the heap in use right after the collection that opened
// the phase: the catalog and the benchmark's own state.
func (p *phaseStats) liveStartMB() float64 { return float64(p.rt0[3].Value.Uint64()) / (1 << 20) }

// heapPeakMB is the peak heap in use, read as the 99th percentile of the
// samples: the top one per cent of the phase, so that one sample that
// happened to land just before a collection does not set it alone. Call
// it after finish.
func (p *phaseStats) heapPeakMB() float64 { return quantile(p.heap, 0.99) / (1 << 20) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. Failed requests enter as +Inf, so a quantile that
// reaches one is +Inf: it misses any latency limit.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	if math.IsInf(s[hi], 1) {
		return s[hi]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fsType names the filesystem holding path, for the run stamp: fsync
// cost, and so PUT latency, depends on it.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
