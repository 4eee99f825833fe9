package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"flipc/internal/gateway"
	"flipc/internal/nameservice"
	"flipc/internal/topic"
)

// The gateway benchmark: wall-clock edge plane throughput and one-way
// latency through a real flipcgw-style stack — Mux on the in-process
// Fabric, clients over loopback TCP speaking the framing protocol. Two
// phases per population size: a connect storm (dial + hello + wildcard
// subscribe + ping barrier for every client, timed end to end) and a
// steady state (paced stamped publishes fanned through the pattern
// plane to every client, split across the three priority classes).
//
// The client population runs in a re-exec'd child process: a TCP
// connection costs two file descriptors in one process and only one on
// each side of a process boundary, so the 10k row fits inside the
// typical fd ceiling — and the split makes the conservation check
// cross-process: the parent's mux delivery ledger must agree exactly
// with what the child decoded back out of the framing.

type gwBenchClass struct {
	Class       string  `json:"class"`
	Clients     int     `json:"clients"`
	Publishes   uint64  `json:"publishes"`
	Delivered   uint64  `json:"delivered"`
	Dropped     uint64  `json:"dropped"`
	Throttled   uint64  `json:"throttled"`
	ChildRecv   uint64  `json:"child_received"`
	LatencyP50  float64 `json:"latency_p50_us"`
	LatencyP99  float64 `json:"latency_p99_us"`
	Samples     int     `json:"latency_samples"`
	InboxDrops  uint64  `json:"inbox_drops"`
	QueueDrops  uint64  `json:"queue_drops"` // dropped + throttled (per-client bound)
	ConservedOK bool    `json:"conserved"`
}

type gwBenchResult struct {
	Clients          int            `json:"clients"`
	ConnectStormMs   float64        `json:"connect_storm_ms"`
	ConnsPerSec      float64        `json:"conns_per_sec"`
	SteadyRounds     int            `json:"steady_rounds"`
	GapUs            float64        `json:"round_gap_us"` // measured closed-loop round period
	ThrottledClients int            `json:"throttled_clients"`
	PerClass         []gwBenchClass `json:"per_class"`
}

type gwBenchReport struct {
	Benchmark   string          `json:"benchmark"`
	MessageSize int             `json:"message_size"`
	Results     []gwBenchResult `json:"results"`
}

// runGatewayBench runs the population matrix and writes the JSON report.
func runGatewayBench(path, sizesCSV string, rounds int) error {
	var sizes []int
	for _, s := range strings.Split(sizesCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 3 {
			return fmt.Errorf("bad -gateway-clients entry %q", s)
		}
		sizes = append(sizes, n)
	}
	report := gwBenchReport{Benchmark: "gateway_edge", MessageSize: msgSize}
	for _, n := range sizes {
		res, err := gatewayBenchOne(n, rounds)
		if err != nil {
			return fmt.Errorf("gateway %d clients: %w", n, err)
		}
		report.Results = append(report.Results, res)
		fmt.Printf("gateway %5d clients: storm %8.1fms (%7.0f conns/s)\n", n, res.ConnectStormMs, res.ConnsPerSec)
		for _, pc := range res.PerClass {
			fmt.Printf("  %-7s %4d clients: p50 %8.1fµs  p99 %8.1fµs  (delivered %d, queue-dropped %d, samples %d)\n",
				pc.Class, pc.Clients, pc.LatencyP50, pc.LatencyP99, pc.Delivered, pc.QueueDrops, pc.Samples)
		}
	}
	return writeReport(path, report)
}

// benchClasses maps class index to the topic each publisher drives and
// the wildcard each client subscribes; clients take class i%3.
var benchClasses = [gateway.NumClasses]struct {
	class topic.Class
	topic string
}{
	{topic.Bulk, "bench.bulk.rate"},
	{topic.Normal, "bench.norm.rate"},
	{topic.Control, "bench.ctl.rate"},
}

func benchPattern(lane int) string {
	return benchClasses[lane].topic[:strings.LastIndexByte(benchClasses[lane].topic, '.')] + ".*"
}

// gwAckTopic carries the child's pacing echoes back through the
// gateway's client-publish path.
const gwAckTopic = "bench.ack"

// gatewayBenchOne runs one population size: gateway + publishers in
// this process, the client population in a re-exec'd child.
func gatewayBenchOne(nClients, rounds int) (gwBenchResult, error) {
	raiseFDLimit()

	ds, closeAll, err := fabricDomains(2)
	if err != nil {
		return gwBenchResult{}, err
	}
	defer closeAll()
	gwD, pubD := ds[0], ds[1]

	dir := topic.LocalDirectory{R: nameservice.NewTopicRegistry()}
	mux, err := gateway.NewMux(gwD, gateway.Config{
		Name: "gw-bench", Dir: dir,
		InboxBuffers: 128, ClientQueue: 256, ThrottleAt: 32,
		MaxPublishers: 8,
	})
	if err != nil {
		return gwBenchResult{}, err
	}
	srv := gateway.NewServer(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return gwBenchResult{}, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// The client population, one process over: inherits our binary,
	// dials the storm, reports READY, decodes until EOF, reports RESULT.
	child := exec.Command(os.Args[0],
		"-gwdrive", ln.Addr().String(), "-gwdrive-n", strconv.Itoa(nClients))
	child.Stderr = os.Stderr
	childOut, err := child.StdoutPipe()
	if err != nil {
		return gwBenchResult{}, err
	}
	if err := child.Start(); err != nil {
		return gwBenchResult{}, fmt.Errorf("spawning the client driver: %w", err)
	}
	defer child.Process.Kill()
	sc := bufio.NewScanner(childOut)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	readLine := func(prefix string, timeout time.Duration) (string, error) {
		lineCh := make(chan string, 1)
		errCh := make(chan error, 1)
		go func() {
			for sc.Scan() {
				line := sc.Text()
				if strings.HasPrefix(line, prefix) {
					lineCh <- strings.TrimPrefix(line, prefix)
					return
				}
			}
			errCh <- fmt.Errorf("client driver exited before %q (%v)", prefix, sc.Err())
		}()
		select {
		case l := <-lineCh:
			return l, nil
		case err := <-errCh:
			return "", err
		case <-time.After(timeout):
			return "", fmt.Errorf("client driver stuck before %q", prefix)
		}
	}

	stormLine, err := readLine("READY ", 5*time.Minute)
	if err != nil {
		return gwBenchResult{}, err
	}
	stormMs, err := strconv.ParseFloat(stormLine, 64)
	if err != nil {
		return gwBenchResult{}, fmt.Errorf("bad READY line %q", stormLine)
	}
	if h := mux.Health(); h.Conns != nClients || h.Presence != nClients {
		return gwBenchResult{}, fmt.Errorf("storm incomplete on the gateway: %d conns, %d leases, want %d", h.Conns, h.Presence, nClients)
	}

	// Publishers land after the storm so the first plan already holds
	// the pattern plane; the ping barrier guaranteed every subscribe is
	// registered, not merely sent.
	var pubs [gateway.NumClasses]*topic.Publisher
	for lane, bc := range benchClasses {
		p, err := topic.NewPublisher(pubD, dir, topic.PublisherConfig{
			Topic: bc.topic, Class: bc.class, Depth: 64, Window: 64, RefreshEvery: 16,
		})
		if err != nil {
			return gwBenchResult{}, err
		}
		if p.PatternSubscribers() == 0 {
			return gwBenchResult{}, fmt.Errorf("%s plan missing the gateway pattern plane", bc.topic)
		}
		pubs[lane] = p
	}

	// Steady state: one stamped publish per class per round, closed-loop
	// paced — the first client of each class echoes every delivery back
	// as a client publish on the ack topic, and the next round waits
	// for all three echoes. The loop closes through the entire stack
	// both ways (publish → fabric → mux → framing → TCP → child decode
	// → client publish → mux → fabric → this subscriber), so the
	// samples price the pipeline, not an accumulating backlog — and the
	// client→gateway publish path is measured under load for free.
	ackSub, err := topic.NewSubscriber(pubD, dir, gwAckTopic, topic.Normal, 64, 64)
	if err != nil {
		return gwBenchResult{}, err
	}
	payload := make([]byte, 16)
	minGap := 500 * time.Microsecond
	acked := 0
	steadyT0 := time.Now()
	for r := 0; r < rounds; r++ {
		next := time.Now().Add(minGap)
		for lane := range benchClasses {
			stamp(payload)
			if _, err := pubs[lane].Publish(payload); err != nil {
				return gwBenchResult{}, err
			}
		}
		want := (r + 1) * gateway.NumClasses
		ackDeadline := time.Now().Add(500 * time.Millisecond)
		for acked < want && time.Now().Before(ackDeadline) {
			for {
				if _, _, ok := ackSub.Receive(); !ok {
					break
				}
				acked++
			}
			time.Sleep(100 * time.Microsecond)
		}
		for time.Now().Before(next) {
			time.Sleep(50 * time.Microsecond)
		}
	}
	gap := time.Since(steadyT0) / time.Duration(rounds)
	throttledClients := mux.Health().Throttled

	// Quiesce at the mux boundary: every fanout-sent frame has arrived
	// (drained or counted at the inbox), and every matched frame was
	// popped to a writer or counted against a queue bound.
	var wantArrived uint64
	for _, p := range pubs {
		wantArrived += p.Sent()
	}
	var matched, accounted uint64
	queued := 0
	if !waitUntil(10*time.Second, func() bool {
		st := mux.Stats()
		arrived := st.Received
		for lane := 0; lane < gateway.NumClasses; lane++ {
			arrived += mux.InboxDrops(lane)
		}
		matched, accounted, queued = st.Matched, 0, 0
		for _, c := range mux.Clients() {
			d, dr, th := c.Ledgers()
			accounted += d + dr + th
			queued += c.Queued()
		}
		return arrived == wantArrived && queued == 0 && matched == accounted
	}) {
		return gwBenchResult{}, fmt.Errorf("gateway never quiesced: matched %d, accounted %d, queued %d",
			matched, accounted, queued)
	}

	// Attribute the mux ledgers per class before teardown (clients
	// detach on close). Client i is named c<i> and runs class i%3.
	var classLedger [gateway.NumClasses]struct{ del, drop, thr uint64 }
	var classClients [gateway.NumClasses]int
	for _, c := range mux.Clients() {
		name := c.Name()
		if !strings.HasPrefix(name, "c") {
			return gwBenchResult{}, fmt.Errorf("unexpected client name %q", name)
		}
		i, err := strconv.Atoi(name[1:])
		if err != nil {
			return gwBenchResult{}, fmt.Errorf("unexpected client name %q", name)
		}
		lane := i % gateway.NumClasses
		d, dr, th := c.Ledgers()
		classLedger[lane].del += d
		classLedger[lane].drop += dr
		classLedger[lane].thr += th
		classClients[lane]++
	}
	var inboxDrops [gateway.NumClasses]uint64
	for lane := range inboxDrops {
		inboxDrops[lane] = mux.InboxDrops(lane)
	}

	// TCP flushes written frames before FIN, so closing the server is
	// the end-of-stream marker the child drains to.
	time.Sleep(200 * time.Millisecond)
	if err := srv.Close(); err != nil {
		return gwBenchResult{}, err
	}
	<-serveErr

	resultLine, err := readLine("RESULT ", time.Minute)
	if err != nil {
		return gwBenchResult{}, err
	}
	var childRes gwDriveResult
	if err := json.Unmarshal([]byte(resultLine), &childRes); err != nil {
		return gwBenchResult{}, fmt.Errorf("bad RESULT line: %w", err)
	}
	if err := child.Wait(); err != nil {
		return gwBenchResult{}, fmt.Errorf("client driver: %w", err)
	}

	res := gwBenchResult{
		Clients:          nClients,
		ConnectStormMs:   stormMs,
		ConnsPerSec:      float64(nClients) / (stormMs / 1e3),
		SteadyRounds:     rounds,
		GapUs:            float64(gap.Microseconds()),
		ThrottledClients: throttledClients,
	}
	for lane, bc := range benchClasses {
		cc := childRes.PerClass[lane]
		led := classLedger[lane]
		pc := gwBenchClass{
			Class:       bc.class.String(),
			Clients:     classClients[lane],
			Publishes:   pubs[lane].Published(),
			Delivered:   led.del,
			Dropped:     led.drop,
			Throttled:   led.thr,
			ChildRecv:   cc.Received,
			LatencyP50:  cc.P50,
			LatencyP99:  cc.P99,
			Samples:     cc.Samples,
			InboxDrops:  inboxDrops[lane],
			QueueDrops:  led.drop + led.thr,
			ConservedOK: cc.Received == led.del,
		}
		if !pc.ConservedOK {
			return res, fmt.Errorf("%s conservation broke across the process boundary: child decoded %d, mux delivered %d",
				pc.Class, cc.Received, led.del)
		}
		res.PerClass = append(res.PerClass, pc)
	}
	return res, nil
}

// raiseFDLimit lifts the soft fd limit to the hard limit; two fds per
// client connection in this process pair is the bench's budget.
func raiseFDLimit() {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err == nil && rl.Cur < rl.Max {
		rl.Cur = rl.Max
		_ = syscall.Setrlimit(syscall.RLIMIT_NOFILE, &rl)
	}
}

// ---- the client driver (runs in the re-exec'd child) ----

type gwDriveClass struct {
	Received uint64  `json:"received"`
	P50      float64 `json:"p50_us"`
	P99      float64 `json:"p99_us"`
	Samples  int     `json:"samples"`
}

type gwDriveResult struct {
	PerClass [gateway.NumClasses]gwDriveClass `json:"per_class"`
}

// runGatewayDriver is the child: dial the storm, report READY with the
// storm duration, decode deliveries until the server hangs up, report
// RESULT. Protocol lines go to stdout; anything human to stderr.
func runGatewayDriver(addr string, n int) error {
	raiseFDLimit()
	type cstate struct {
		conn *gateway.Conn
		lat  []float64
		recv uint64
	}
	clients := make([]*cstate, n)

	// Connect storm, bounded parallelism: dial + hello + subscribe +
	// ping barrier. The pong proves the gateway processed the subscribe
	// (one in-order stream per connection), so storm completion means
	// every client is live on the pattern plane, not merely connected.
	t0 := time.Now()
	sem := make(chan struct{}, 256)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			conn, err := gateway.Dial(addr, "c"+strconv.Itoa(i))
			if err != nil {
				errs <- fmt.Errorf("client %d dial: %w", i, err)
				return
			}
			lane := i % gateway.NumClasses
			if err := conn.Subscribe(benchPattern(lane), benchClasses[lane].class); err != nil {
				errs <- err
				return
			}
			if err := conn.Ping(nil); err != nil {
				errs <- err
				return
			}
			conn.SetReadDeadline(time.Now().Add(time.Minute))
			for {
				fr, err := conn.Recv()
				if err != nil {
					errs <- fmt.Errorf("client %d barrier: %w", i, err)
					return
				}
				if fr.Op == gateway.OpPong {
					break
				}
			}
			conn.SetReadDeadline(time.Time{})
			clients[i] = &cstate{conn: conn}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
	}
	fmt.Printf("READY %.3f\n", float64(time.Since(t0).Nanoseconds())/1e6)

	// Steady state: every client decodes deliveries (each one crossed
	// publish → fabric → mux → framing → TCP) until EOF ends the run.
	// The first client of each class echoes every delivery back as a
	// client publish — the parent's pacing signal.
	for i, cs := range clients {
		cs, ack := cs, i < gateway.NumClasses
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				fr, err := cs.conn.RecvDeliver()
				if err != nil {
					return
				}
				cs.recv++
				if len(fr.Payload) >= 8 {
					cs.lat = append(cs.lat, stampSample(fr.Payload).latUs)
				}
				if ack {
					if err := cs.conn.Publish(gwAckTopic, topic.Normal, fr.Payload[:8]); err != nil {
						return
					}
				}
			}
		}()
	}
	wg.Wait()

	var out gwDriveResult
	var lats [gateway.NumClasses][]float64
	for i, cs := range clients {
		lane := i % gateway.NumClasses
		out.PerClass[lane].Received += cs.recv
		lats[lane] = append(lats[lane], cs.lat...)
	}
	for lane := range lats {
		out.PerClass[lane].Samples = len(lats[lane])
		out.PerClass[lane].P50, out.PerClass[lane].P99 = p50p99(lats[lane])
	}
	enc, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Printf("RESULT %s\n", enc)
	return nil
}
