package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"harmony"
	"harmony/internal/classify"
	"harmony/internal/core"
	"harmony/internal/daemon"
	"harmony/internal/sched"
	"harmony/internal/trace"
)

const (
	// daemonScale is harmonyd's -scale: the headline's 500 machines.
	daemonScale = 20
	// headlineTicks is the headline's control periods: 12 h of 300 s.
	headlineTicks = 144
	// minSlot is the shortest wall-clock slot per model period. Shorter
	// slots push ticks toward saturation on two cores, where latency
	// stops measuring the control path and measures the backlog.
	minSlot = 200 * time.Millisecond
	// ingestBatch is the most tasks per POST /v1/tasks (about 1 300
	// requests over the headline trace).
	ingestBatch = 100
	// The open-loop generator's own lateness, past which a run is
	// invalid: it then measures the load generator, not harmonyd.
	lagP99Limit = 25 * time.Millisecond
	lagMaxLimit = 250 * time.Millisecond
)

// exchange is one timed HTTP request of the replay. lag is how late the
// generator itself was: send time minus the later of the due time and
// the moment the request could go out — the previous request on its
// connection answered, for a tick every ingest batch of its slot
// acknowledged, and for a period's first batch the previous tick
// answered.
//
// latency is timed from the due time, or for an ingest batch from the
// later of its due time and held: the benchmark holds a period's batches
// until the previous tick has answered (see replayOpenLoop), and a batch
// due during that imposed wait is timed from its end. Its latency is then
// harmonyd's ingest time, queueing behind its period's earlier batches
// included, and not the tick's.
type exchange struct {
	due, held, ready, sent, done time.Time
	status                       int
	err                          error
}

func (x exchange) latency() time.Duration {
	from := x.due
	if x.held.After(from) {
		from = x.held
	}
	return x.done.Sub(from)
}

func (x exchange) lag() time.Duration {
	from := x.due
	if x.ready.After(from) {
		from = x.ready
	}
	return x.sent.Sub(from)
}

func (x exchange) ok() bool { return x.err == nil && x.status >= 200 && x.status < 300 }

// countFailures counts attempted and failed operations: any transport
// error or non-2xx answer fails — a 429 ingest, a 409 in-flight or a 504
// deadline tick alike.
func countFailures(xs ...[]exchange) (attempted, failed int64) {
	for _, list := range xs {
		for _, x := range list {
			attempted++
			if !x.ok() {
				failed++
			}
		}
	}
	return attempted, failed
}

// harmonyd is one running daemon subprocess.
type harmonyd struct {
	cmd     *exec.Cmd
	addr    string
	log     bytes.Buffer // stderr, complete once logDone is closed
	logDone chan struct{}
}

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// startHarmonyd starts harmonyd on a free loopback port and returns once
// /healthz answers.
func startHarmonyd(bin, charPath string) (*harmonyd, error) {
	d := &harmonyd{logDone: make(chan struct{})}
	d.cmd = exec.Command(bin, "-char", charPath, "-scale", fmt.Sprint(daemonScale),
		"-mode", "CBS", "-addr", "127.0.0.1:0")
	d.cmd.Env = withoutEnv(os.Environ(), dumpEnv)
	// Should the benchmark itself be killed, take harmonyd with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logs, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start harmonyd: %w", err)
	}
	addrC := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(logs)
		for sc.Scan() {
			line := sc.Text()
			if m := listenRe.FindStringSubmatch(line); m != nil {
				select {
				case addrC <- m[1]:
				default:
				}
			}
			d.log.WriteString(line + "\n")
		}
	}()
	select {
	case d.addr = <-addrC:
	case <-d.logDone:
		d.cmd.Wait()
		return nil, fmt.Errorf("harmonyd exited before listening: %s", d.log.String())
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, errors.New("harmonyd did not report its address")
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get("http://" + d.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, errors.New("harmonyd /healthz never answered")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *harmonyd) kill() {
	d.cmd.Process.Kill()
	<-d.logDone
	d.cmd.Wait()
}

// stop shuts harmonyd down with SIGTERM (a final flush, tick and plan
// dump) and returns its resource usage.
func (d *harmonyd) stop() (*syscall.Rusage, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return nil, err
	}
	done := make(chan error, 1)
	go func() {
		<-d.logDone
		done <- d.cmd.Wait()
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(90 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return nil, errors.New("harmonyd ignored SIGTERM")
	}
	if err != nil {
		return nil, fmt.Errorf("harmonyd exit: %v: %s", err, d.log.String())
	}
	ru, _ := d.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	return ru, nil
}

func withoutEnv(env []string, key string) []string {
	out := env[:0:0]
	for _, kv := range env {
		if !strings.HasPrefix(kv, key+"=") {
			out = append(out, kv)
		}
	}
	return out
}

// daemonSetup is the replay's prepared input: the workload, the saved
// characterization and a running harmonyd.
type daemonSetup struct {
	w        *harmony.Workload
	ch       *classify.Characterization
	charPath string
	d        *harmonyd
}

// setupDaemon generates and characterizes the headline workload, saves
// the characterization, and starts harmonyd on it.
func setupDaemon(opt options, tr *tracer, parent int) (*daemonSetup, error) {
	w, ch, err := setupHeadline(opt.seed, tr, parent)
	if err != nil {
		return nil, err
	}
	s := &daemonSetup{w: w, ch: ch, charPath: filepath.Join(opt.runDir, fmt.Sprintf("char-%d.json", os.Getpid()))}
	id := tr.begin("classify.Save", parent, -1)
	err = saveCharacterization(s.charPath, ch)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("harmonyd.start", parent, -1)
	s.d, err = startHarmonyd(opt.harmonyd, s.charPath)
	tr.end(id)
	return s, err
}

func saveCharacterization(path string, ch *classify.Characterization) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := classify.Save(f, ch); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replaySchedule is the open-loop schedule of one replay: each model
// period's arrivals as NDJSON batches spread evenly over its wall-clock
// slot, and a tick due at the slot's end.
type replaySchedule struct {
	slot      time.Duration
	bodies    [][]byte
	batchDue  []time.Duration // since the replay's start
	batchSlot []int
	tickDue   []time.Duration
	lastBatch []int // per slot: index of its last batch, or -1
	tasks     int
}

func buildSchedule(tasks []trace.Task, ticks int, slot time.Duration) (*replaySchedule, error) {
	s := &replaySchedule{slot: slot, lastBatch: make([]int, ticks)}
	i := 0
	for k := 0; k < ticks; k++ {
		boundary := float64(k+1) * periodSeconds
		var period []trace.Task
		for i < len(tasks) && tasks[i].Submit < boundary {
			period = append(period, tasks[i])
			i++
		}
		nb := (len(period) + ingestBatch - 1) / ingestBatch
		s.lastBatch[k] = -1
		for j := 0; j < nb; j++ {
			var body bytes.Buffer
			enc := json.NewEncoder(&body)
			for _, t := range period[j*ingestBatch : min((j+1)*ingestBatch, len(period))] {
				if err := enc.Encode(t); err != nil {
					return nil, err
				}
			}
			s.lastBatch[k] = len(s.bodies)
			s.bodies = append(s.bodies, body.Bytes())
			s.batchDue = append(s.batchDue, time.Duration(k)*slot+time.Duration(j)*slot/time.Duration(nb))
			s.batchSlot = append(s.batchSlot, k)
		}
		s.tickDue = append(s.tickDue, time.Duration(k+1)*slot)
		s.tasks += len(period)
	}
	if i != len(tasks) {
		return nil, fmt.Errorf("%d tasks fall after the last tick", len(tasks)-i)
	}
	return s, nil
}

// replayOutcome is what one open-loop replay measured.
type replayOutcome struct {
	start     time.Time
	ingest    []exchange
	ticks     []exchange
	plans     []*daemon.Plan
	serverMs  []float64 // server-side duration of each tick (traced)
	rejected  int       // tasks refused with 429
	accepted  int
	stats     daemon.Stats
	rusage    *syscall.Rusage
	lateTicks int
}

// oneConnClient is an HTTP client that keeps exactly one connection.
func oneConnClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

// replayOpenLoop runs the schedule against harmonyd: ingest batches on
// one connection, ticks (and, traced, a /metrics read after each) on a
// second, each request sent when due regardless of how the last fared.
//
// One ordering rule holds the generator back: harmonyd books an arrival
// to whichever period is open when its ingest worker takes it, and
// exposes no cheap signal that a tick has closed its period. So a
// period's first batch waits for the previous tick's answer; otherwise
// it could race the tick's flush and land in the wrong period, and the
// plans would no longer be comparable with the batch replay. The wait
// counts neither in the latency of the period's batches nor in the
// generator's lag. A consequence is that ingest never overlaps a tick.
func replayOpenLoop(addr string, s *replaySchedule, tr *tracer, parent int) *replayOutcome {
	base := "http://" + addr
	out := &replayOutcome{
		ingest: make([]exchange, len(s.bodies)),
		ticks:  make([]exchange, len(s.tickDue)),
		plans:  make([]*daemon.Plan, len(s.tickDue)),
	}
	// acked[k] carries when slot k's last batch was answered; answered[k]
	// when tick k was. Each gets exactly one send, so a buffer of one
	// never blocks the sender.
	acked := make([]chan time.Time, len(s.tickDue))
	answered := make([]chan time.Time, len(s.tickDue))
	for k := range acked {
		acked[k] = make(chan time.Time, 1)
		answered[k] = make(chan time.Time, 1)
		if s.lastBatch[k] < 0 {
			acked[k] <- time.Time{}
		}
	}
	ingestC, tickC := oneConnClient(), oneConnClient()
	defer ingestC.CloseIdleConnections()
	defer tickC.CloseIdleConnections()
	out.start = time.Now().Add(50 * time.Millisecond)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ready := out.start
		var held time.Time // when the previous tick answered
		for j, body := range s.bodies {
			k := s.batchSlot[j]
			if k > 0 && (j == 0 || s.batchSlot[j-1] != k) {
				held = <-answered[k-1]
				if held.After(ready) {
					ready = held
				}
			}
			x := exchange{due: out.start.Add(s.batchDue[j]), held: held, ready: ready}
			time.Sleep(time.Until(x.due))
			var resp ingestAnswer
			x.sent = time.Now()
			x.status, x.err = post(ingestC, base+"/v1/tasks", body, &resp)
			x.done = time.Now()
			tr.record("http.POST /v1/tasks", parent, int64(j), x.sent, x.done)
			out.ingest[j] = x
			out.accepted += resp.Accepted
			out.rejected += resp.Rejected
			ready = x.done
			if s.lastBatch[k] == j {
				acked[k] <- x.done
			}
		}
	}()
	go func() {
		defer wg.Done()
		ready := out.start
		prevSum := 0.0
		for k := range s.tickDue {
			x := exchange{due: out.start.Add(s.tickDue[k])}
			time.Sleep(time.Until(x.due))
			if t := <-acked[k]; t.After(ready) {
				ready = t
			}
			x.ready = ready
			var plan daemon.Plan
			x.sent = time.Now()
			x.status, x.err = post(tickC, base+"/v1/tick", nil, &plan)
			x.done = time.Now()
			answered[k] <- x.done
			tr.record("http.POST /v1/tick", parent, int64(k), x.sent, x.done)
			out.ticks[k] = x
			if x.ok() {
				out.plans[k] = &plan
			}
			ready = x.done
			if tr != nil {
				start := time.Now()
				sum, err := tickSecondsSum(tickC, base)
				end := time.Now()
				tr.record("http.GET /metrics", parent, int64(k), start, end)
				if err == nil {
					out.serverMs = append(out.serverMs, (sum-prevSum)*1e3)
					prevSum = sum
				}
				ready = end
			}
		}
	}()
	wg.Wait()
	for k, x := range out.ticks {
		if x.done.After(out.start.Add(s.tickDue[k] + s.slot)) {
			out.lateTicks++
		}
	}
	return out
}

// tickSecondsSum reads harmonyd's cumulative control-loop time, the sum
// of its harmonyd_tick_duration_seconds histogram; its growth across one
// tick is that tick's server-side duration (what /v1/stats reports as
// lastTickSeconds, without the forecast backtest /v1/stats also runs).
func tickSecondsSum(c *http.Client, base string) (float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	const key = "harmonyd_tick_duration_seconds_sum "
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), key); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no harmonyd_tick_duration_seconds_sum in /metrics")
}

type ingestAnswer struct {
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
}

func post(c *http.Client, url string, body []byte, into any) (int, error) {
	resp, err := c.Post(url, "application/x-ndjson", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	return decodeAnswer(resp, into)
}

func get(c *http.Client, url string, into any) (int, error) {
	resp, err := c.Get(url)
	if err != nil {
		return 0, err
	}
	return decodeAnswer(resp, into)
}

func decodeAnswer(resp *http.Response, into any) (int, error) {
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if err := json.Unmarshal(raw, into); err != nil && resp.StatusCode < 300 {
		return resp.StatusCode, fmt.Errorf("decode answer: %w", err)
	}
	return resp.StatusCode, nil
}

// finishReplay reads the daemon's counters and shuts it down.
func finishReplay(d *harmonyd, out *replayOutcome) error {
	if _, err := get(http.DefaultClient, "http://"+d.addr+"/v1/stats", &out.stats); err != nil {
		d.kill()
		return fmt.Errorf("read /v1/stats: %w", err)
	}
	ru, err := d.stop()
	out.rusage = ru
	return err
}

// referencePlan is the batch replay of the same tasks and tick count,
// through the same saved characterization harmonyd loaded.
func referencePlan(s *daemonSetup, ticks int) (*daemon.Plan, error) {
	f, err := os.Open(s.charPath)
	if err != nil {
		return nil, err
	}
	ch, err := classify.Load(f)
	f.Close()
	if err != nil {
		return nil, err
	}
	machines, models := tableII(daemonScale)
	return daemon.Replay(daemon.Config{
		Machines: machines, Models: models, Char: ch, Mode: core.CBS,
		PeriodSeconds: periodSeconds, Horizon: mpcHorizon, Forecaster: sched.PredictARIMA,
	}, s.w.Trace.Tasks, ticks)
}

// checkReplay applies the replay's correctness and validity checks.
func checkReplay(rep *report, s *replaySchedule, out *replayOutcome, want *daemon.Plan) {
	var lags []float64
	for _, list := range [][]exchange{out.ingest, out.ticks} {
		for _, x := range list {
			lags = append(lags, ms(x.lag()))
		}
	}
	p99, _ := percentile(lags, 0.99)
	if p99 > ms(lagP99Limit) || maxOf(lags) > ms(lagMaxLimit) {
		rep.fail("invalid run: load generator lag p99 %.1f ms, max %.1f ms (limits %v, %v)",
			p99, maxOf(lags), lagP99Limit, lagMaxLimit)
	}
	last := out.plans[len(out.plans)-1]
	switch {
	case last == nil:
		rep.fail("the last tick returned no plan")
	case !reflect.DeepEqual(last, want):
		rep.fail("harmonyd's last plan differs from the batch replay reference")
	}
	for k, p := range out.plans {
		if p != nil && p.PeriodIndex != k+1 {
			rep.fail("tick %d answered period %d", k+1, p.PeriodIndex)
			break
		}
	}
	if out.accepted+out.rejected != s.tasks || int(out.stats.TasksIngested) != out.accepted {
		rep.fail("tasks not conserved: %d sent, %d accepted, %d rejected, harmonyd ingested %d",
			s.tasks, out.accepted, out.rejected, out.stats.TasksIngested)
	}
}

// planEnergy prices the plans the way tenant.Multi books a group's cost:
// idle power of the machines each plan keeps on for one period, plus the
// switching cost of every machine turned on or off.
func planEnergy(plans []*daemon.Plan) (kwh, usd float64) {
	_, models := tableII(daemonScale)
	sw := switchCosts(models)
	prev := make([]int, len(models))
	for _, p := range plans {
		if p == nil {
			continue
		}
		for m, mp := range p.Machines {
			e := float64(mp.Active) * models[m].IdleWatts * periodSeconds / 3.6e6
			kwh += e
			usd += e * pricePerKWh
			delta := mp.Active - prev[m]
			if delta < 0 {
				delta = -delta
			}
			usd += float64(delta) * sw[m]
			prev[m] = mp.Active
		}
	}
	return kwh, usd
}

// runDaemonReplay is the harmonyd-replay workload.
func runDaemonReplay(opt options, rep *report) error {
	slot := time.Duration(opt.seconds) * time.Second / headlineTicks
	if slot < minSlot {
		slot = minSlot
	}
	if !opt.traced {
		var (
			setups []float64
			s      *daemonSetup
		)
		for i := 0; i < setupReps; i++ {
			if s != nil {
				if _, err := s.d.stop(); err != nil {
					return err
				}
			}
			runtime.GC()
			start := time.Now()
			var err error
			if s, err = setupDaemon(opt, nil, 0); err != nil {
				return err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		rep.set("setup_s", median(setups))
		schedule, err := buildSchedule(s.w.Trace.Tasks, headlineTicks, slot)
		if err != nil {
			s.d.kill()
			return err
		}
		runtime.GC()
		out := replayOpenLoop(s.d.addr, schedule, nil, 0)
		if err := finishReplay(s.d, out); err != nil {
			return err
		}
		want, err := referencePlan(s, headlineTicks)
		if err != nil {
			return err
		}
		checkReplay(rep, schedule, out, want)
		rep.attempted, rep.failed = countFailures(out.ingest, out.ticks)
		logReplay(out)
		return nil
	}

	tr := newTracer()
	rep.tr = tr
	root := tr.begin("harmonyd-replay", 0, -1)
	defer tr.end(root)
	s, err := setupDaemon(opt, tr, root)
	if err != nil {
		return err
	}
	schedule, err := buildSchedule(s.w.Trace.Tasks, headlineTicks, slot)
	if err != nil {
		s.d.kill()
		return err
	}
	// Untraced first, for the overhead base, then traced on a fresh daemon.
	base := replayOpenLoop(s.d.addr, schedule, nil, 0)
	if err := finishReplay(s.d, base); err != nil {
		return err
	}
	id := tr.begin("harmonyd.start", root, -1)
	s.d, err = startHarmonyd(opt.harmonyd, s.charPath)
	tr.end(id)
	if err != nil {
		return err
	}
	runtime.GC()
	out := replayOpenLoop(s.d.addr, schedule, tr, root)
	if err := finishReplay(s.d, out); err != nil {
		return err
	}
	want, err := referencePlan(s, headlineTicks)
	if err != nil {
		return err
	}
	checkReplay(rep, schedule, base, want)
	checkReplay(rep, schedule, out, want)
	reportReplayLayers(rep, tr, s, out, base)
	return nil
}

// logReplay prints an untraced replay's unbounded figures to stderr:
// they vary with the seed's content more than a bound allows
// (README.md), but a comparison at a fixed seed can use them.
func logReplay(out *replayOutcome) {
	t50, _ := percentile(latencyMs(out.ticks), 0.5)
	t90, _ := percentile(latencyMs(out.ticks), 0.9)
	i50, _ := percentile(latencyMs(out.ingest), 0.5)
	i99, _ := percentile(latencyMs(out.ingest), 0.99)
	fmt.Fprintf(os.Stderr, "e2ebench: replay tick p50 %.3f ms, p90 %.3f ms, ingest p50 %.3f ms, p99 %.3f ms, %d late ticks, harmonyd peak RSS %.1f MB\n",
		t50, t90, i50, i99, out.lateTicks, maxRSSMB(out.rusage))
}

// latencyMs returns each exchange's latency in ms.
func latencyMs(xs []exchange) []float64 {
	var out []float64
	for _, x := range xs {
		out = append(out, ms(x.latency()))
	}
	return out
}

// reportReplayLayers sets the ledger of a traced replay. The e2e group
// comes from base, the untraced replay of the same invocation.
func reportReplayLayers(rep *report, tr *tracer, s *daemonSetup, out, base *replayOutcome) {
	spans := tr.snapshot()
	rep.attempted, rep.failed = countFailures(out.ingest, out.ticks)
	last := base.ticks[len(base.ticks)-1].done
	rep.set("e2e.peak_rss_mb", maxRSSMB(base.rusage))
	rep.set("e2e.tasks_per_s", float64(base.accepted)/last.Sub(base.start).Seconds())
	baseTicks := latencyMs(base.ticks)
	rep.setPct("e2e.tick_p50_ms", baseTicks, 0.5)
	rep.setPct("e2e.tick_p90_ms", baseTicks, 0.9)
	baseIngest := latencyMs(base.ingest)
	rep.setPct("e2e.ingest_p50_ms", baseIngest, 0.5)
	rep.setPct("e2e.ingest_p99_ms", baseIngest, 0.99)
	rep.set("e2e.late_tick_frac", float64(base.lateTicks)/float64(len(base.ticks)))
	attempted, failed := countFailures(base.ingest, base.ticks)
	rep.set("e2e.failed_frac", float64(failed)/float64(attempted))
	genS := sum(spansNamed(spans, "trace.Generate")) / 1e3
	rep.set("trace.gen_s", genS)
	rep.set("trace.gen_tasks_per_s", float64(len(s.w.Trace.Tasks))/genS)
	rep.set("classify.characterize_s", sum(spansNamed(spans, "classify.Characterize"))/1e3)
	rep.set("classify.task_types", float64(out.stats.TaskTypes))

	okTicks := 0
	var overhead []float64
	for k, x := range out.ticks {
		if x.ok() {
			okTicks++
		}
		if k < len(out.serverMs) {
			overhead = append(overhead, ms(x.done.Sub(x.sent))-out.serverMs[k])
		}
	}
	rep.set("sched.ticks", float64(okTicks))
	rep.set("sched.tick_errors", float64(len(out.ticks)-okTicks))
	rep.setPct("sched.tick_ms_p50", out.serverMs, 0.5)
	rep.setPct("sched.tick_ms_p90", out.serverMs, 0.9)
	rep.set("sched.tick_ms_max", maxOf(out.serverMs))
	rep.set("sched.tick_total_s", sum(out.serverMs)/1e3)
	rep.setPct("daemon.tick_overhead_ms_p50", overhead, 0.5)

	kwh, usd := planEnergy(out.plans)
	rep.set("daemon.plan_energy_kwh", kwh)
	rep.set("daemon.plan_cost_usd", usd)
	rep.set("daemon.ingested", float64(out.stats.TasksIngested))
	rep.set("daemon.rejected_429", float64(out.rejected))
	rep.set("daemon.label_fallbacks", float64(out.stats.LabelFallbacks))
	rep.set("daemon.relabels", float64(out.stats.Relabels))
	rep.set("daemon.ticks_skipped", float64(out.stats.TicksSkipped))
	rep.set("daemon.ticks_late", float64(out.stats.TicksLate))

	var lags []float64
	for _, list := range [][]exchange{out.ingest, out.ticks} {
		for _, x := range list {
			lags = append(lags, ms(x.lag()))
		}
	}
	rep.setPct("loadgen.lag_ms_p99", lags, 0.99)
	rep.set("loadgen.lag_ms_max", maxOf(lags))

	traced, _ := percentile(latencyMs(out.ticks), 0.5)
	untraced, _ := percentile(baseTicks, 0.5)
	rep.set("bench.tracing_overhead_frac", traced/untraced-1)
}
