// Command orthrus-bench regenerates the paper's evaluation figures.
//
// Usage:
//
//	orthrus-bench -list
//	orthrus-bench -experiment fig4b
//	orthrus-bench -experiment all -duration 1s -records 1000000 -threads 80
//	orthrus-bench -experiment batching -json bench-out
//
// Each experiment prints the same series the corresponding paper figure
// plots; see README.md "Regenerating the paper's figures" for the expected shapes and
// paper-vs-measured comparison. Beyond the figures, the openloop
// experiment reports commit latency under offered load, the batching
// experiment sweeps BatchSize (1 = unbatched) for ring operations and
// throughput, the durability experiment sweeps WAL sync policy
// (self-clocked group commit against timed fill windows) against the
// no-WAL baseline, the scan experiment sweeps a
// YCSB-E scan mix (scan fraction × max scan length, pinnable with
// -scan-pct/-scan-maxlen)
// across all four engines, and the htap experiment compares MVCC
// snapshot scans against locking scans under a contended transfer mix
// (analytics fraction pinnable with -readonly-pct). With -json <dir>, each experiment's series is also written
// as JSON rows (one object per line) to <dir>/BENCH_<id>.json for
// mechanical tracking across checkouts.
//
// Profiling: -cpuprofile, -memprofile and -mutexprofile write pprof
// files covering the run, e.g.
//
//	orthrus-bench -experiment batching -cpuprofile cpu.pb.gz
//	go tool pprof cpu.pb.gz
package main

import (
	"bufio"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
	"repro/internal/orthrus"
	"repro/internal/storage"
	"repro/internal/workload"
)

// startProfiles turns on the requested profilers and returns a stop
// function that writes the profile files. CPU profiling runs for the
// whole invocation; heap and mutex profiles are snapshotted at exit —
// point them at a single experiment (-experiment batching) rather than
// 'all' for an attributable profile.
func startProfiles(cpu, mem, mutex string) func() {
	var cpuFile *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			fmt.Fprintf(os.Stderr, "orthrus-bench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "orthrus-bench: -cpuprofile: %v\n", err)
			os.Exit(2)
		}
		cpuFile = f
	}
	if mutex != "" {
		runtime.SetMutexProfileFraction(5)
	}
	write := func(path, profile string) {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "orthrus-bench: writing %s profile: %v\n", profile, err)
			os.Exit(2)
		}
		defer f.Close()
		if profile == "heap" {
			runtime.GC() // report live objects, not dead garbage
		}
		if err := pprof.Lookup(profile).WriteTo(f, 0); err != nil {
			fmt.Fprintf(os.Stderr, "orthrus-bench: writing %s profile: %v\n", profile, err)
			os.Exit(2)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if mem != "" {
			write(mem, "heap")
		}
		if mutex != "" {
			write(mutex, "mutex")
		}
	}
}

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id (fig1, fig4a, ... fig12b) or 'all'")
		list       = flag.Bool("list", false, "list available experiments")
		duration   = flag.Duration("duration", 300*time.Millisecond, "measured duration per data point")
		records    = flag.Uint64("records", 100_000, "YCSB table size (paper: 10,000,000)")
		recordSize = flag.Int("recordsize", 100, "record payload bytes (paper: 1,000)")
		threads    = flag.Int("threads", 80, "cap on the thread-count axes (paper machine: 80 cores)")
		items      = flag.Int("tpcc-items", 1000, "TPC-C items per warehouse (spec: 100,000)")
		custs      = flag.Int("tpcc-customers", 100, "TPC-C customers per district (spec: 3,000)")
		scanPct    = flag.Int("scan-pct", 0, "scan experiment: pin the scan fraction (percent; 0 sweeps, out-of-range panics)")
		scanLen    = flag.Int("scan-maxlen", 0, "scan experiment: pin the max scan length (0 sweeps, out-of-range panics)")
		roPct      = flag.Int("readonly-pct", 0, "htap experiment: pin the analytics fraction (percent; 0 uses the default, out-of-range panics)")
		jsonDir    = flag.String("json", "", "also write each experiment's series as JSON rows to <dir>/BENCH_<id>.json")
		transport  = flag.String("transport", "inproc", "message plane: inproc, or tcp for the two-process split (give -listen on the cc node, -peers on the exec node)")
		listen     = flag.String("listen", "", "tcp node mode, cc role: host:port to accept the exec node on (port 0 picks a free port; the bound address is printed as 'LISTEN <addr>')")
		peers      = flag.String("peers", "", "tcp node mode, exec role: the cc node's host:port")
		ccThreads  = flag.Int("cc-threads", 2, "tcp node mode: CC thread count (must match on both nodes)")
		exThreads  = flag.Int("exec-threads", 8, "tcp node mode: execution thread count (must match on both nodes)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile (after GC) to this file at exit")
		mutexProf  = flag.String("mutexprofile", "", "write a mutex-contention profile to this file at exit")
	)
	flag.Parse()

	stopProfiles := startProfiles(*cpuProf, *memProf, *mutexProf)
	defer stopProfiles()

	switch *transport {
	case "inproc":
		if *listen != "" || *peers != "" {
			fmt.Fprintln(os.Stderr, "orthrus-bench: -listen/-peers require -transport tcp")
			os.Exit(2)
		}
		// The distributed experiment runs its cc node as a real second
		// process by re-executing this binary in tcp node mode.
		harness.NodeCommand = spawnCCNode
	case "tcp":
		runTCPNode(*listen, *peers, *ccThreads, *exThreads, *duration, *records, *recordSize)
		return
	default:
		fmt.Fprintf(os.Stderr, "orthrus-bench: unknown -transport %q (want inproc or tcp)\n", *transport)
		os.Exit(2)
	}

	if *list {
		fmt.Println("Available experiments:")
		for _, e := range harness.Registry() {
			fmt.Printf("  %-8s %-13s %s\n", e.ID, e.Figure, e.Description)
		}
		return
	}
	if *experiment == "" {
		fmt.Fprintln(os.Stderr, "orthrus-bench: -experiment or -list required (try -list)")
		os.Exit(2)
	}

	cfg := harness.Config{
		Duration:      *duration,
		Records:       *records,
		RecordSize:    *recordSize,
		MaxThreads:    *threads,
		TPCCItems:     *items,
		TPCCCustomers: *custs,
		ScanPct:       *scanPct,
		ScanMaxLen:    *scanLen,
		ReadOnlyPct:   *roPct,
		Out:           os.Stdout,
	}.Defaults()

	if *experiment == "all" {
		for _, e := range harness.Registry() {
			if err := harness.Run(e, cfg, *jsonDir); err != nil {
				fmt.Fprintf(os.Stderr, "orthrus-bench: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
		}
		return
	}
	e, ok := harness.Get(*experiment)
	if !ok {
		fmt.Fprintf(os.Stderr, "orthrus-bench: unknown experiment %q (try -list)\n", *experiment)
		os.Exit(2)
	}
	if err := harness.Run(e, cfg, *jsonDir); err != nil {
		fmt.Fprintf(os.Stderr, "orthrus-bench: %s: %v\n", e.ID, err)
		os.Exit(1)
	}
}

// fail prints a CLI error and exits; the tcp node modes use it in place
// of the engine's panics so a two-process run dies with a readable line.
func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "orthrus-bench: "+format+"\n", args...)
	os.Exit(1)
}

// runTCPNode runs one half of the two-process split. With -listen this
// process is the cc node: it binds, advertises the address on stdout,
// and serves lock management until the exec node's goodbye. With -peers
// it is the exec node: it dials the cc node, drives the transfer
// workload for the configured duration, property-checks conservation,
// and reports throughput plus the wire counters.
func runTCPNode(listen, peers string, cc, ex int, duration time.Duration, records uint64, recordSize int) {
	if (listen == "") == (peers == "") {
		fail("-transport tcp needs exactly one of -listen (cc node) or -peers (exec node)")
	}
	db := storage.NewDB()
	tbl := db.Create(storage.Layout{Name: "ycsb", NumRecords: records, RecordSize: recordSize})

	if listen != "" {
		ln, err := net.Listen("tcp", listen)
		if err != nil {
			fail("listen %s: %v", listen, err)
		}
		fmt.Printf("LISTEN %s\n", ln.Addr())
		eng := orthrus.New(orthrus.Config{DB: db, CCThreads: cc, ExecThreads: ex,
			Transport: orthrus.TransportConfig{Kind: "tcp", Role: "cc", Listener: ln}})
		eng.Start().Close() // Close gates on the exec node's goodbye
		m := eng.Messages()
		fmt.Printf("cc node done: handled %d acquires, %d forwards, %d releases; sent %d grants in %d frames (%.1f msgs/frame, %d bytes)\n",
			sumPerCC(m, func(s orthrus.CCStats) uint64 { return s.Acquires }),
			m.Forwards, sumPerCC(m, func(s orthrus.CCStats) uint64 { return s.Releases }),
			m.Grants, m.Net.FramesSent, m.Net.MessagesPerFrame(), m.Net.BytesSent)
		return
	}

	eng := orthrus.New(orthrus.Config{DB: db, CCThreads: cc, ExecThreads: ex,
		Transport: orthrus.TransportConfig{Kind: "tcp", Role: "exec", Peer: peers}})
	src := &workload.Transfer{Table: tbl, NumRecords: records}
	res := engine.RunClosedLoop(eng, src, duration)
	var sum uint64
	for k := uint64(0); k < records; k++ {
		sum += storage.GetU64(db.Table(tbl).Get(k), 0)
	}
	m := eng.Messages()
	fmt.Printf("exec node done: %.0f txns/sec, %d committed, %d aborted, p99 %dus; sent %d msgs in %d frames (%.1f msgs/frame, %d bytes)\n",
		res.Throughput(), res.Totals.Committed, res.Totals.Aborted,
		res.Totals.Latency.Percentile(99).Microseconds(),
		m.Net.MessagesSent, m.Net.FramesSent, m.Net.MessagesPerFrame(), m.Net.BytesSent)
	if sum != 0 {
		fail("conservation violated: transfer table sums to %d, want 0", sum)
	}
	fmt.Println("conservation: ok")
}

func sumPerCC(m orthrus.MessageStats, f func(orthrus.CCStats) uint64) uint64 {
	var s uint64
	for _, cs := range m.PerCC {
		s += f(cs)
	}
	return s
}

// spawnCCNode is harness.NodeCommand: it re-executes this binary as the
// cc node on a loopback port, scans its stdout for the advertised
// address, and returns a wait for clean child exit.
func spawnCCNode(c harness.Config, cc, ex int) (string, func() error) {
	exe, err := os.Executable()
	if err != nil {
		fail("distributed: locating own binary: %v", err)
	}
	cmd := exec.Command(exe,
		"-transport", "tcp", "-listen", "127.0.0.1:0",
		"-cc-threads", strconv.Itoa(cc), "-exec-threads", strconv.Itoa(ex),
		"-records", strconv.FormatUint(c.Records, 10),
		"-recordsize", strconv.Itoa(c.RecordSize))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		fail("distributed: cc node stdout: %v", err)
	}
	if err := cmd.Start(); err != nil {
		fail("distributed: starting cc node: %v", err)
	}
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if addr, ok := strings.CutPrefix(sc.Text(), "LISTEN "); ok {
			return addr, func() error {
				for sc.Scan() {
					// Drain the child's report so its exit is clean.
				}
				return cmd.Wait()
			}
		}
	}
	cmd.Process.Kill()
	cmd.Wait()
	fail("distributed: cc node exited without advertising its address")
	return "", nil
}
