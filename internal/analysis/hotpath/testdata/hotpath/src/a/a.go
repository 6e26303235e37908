// Package a exercises the hotpath analyzer.
package a

import (
	"fmt"
	"os"
	"time"
)

// loop is a hot root: everything it statically calls is checked.
//
//orthrus:hotpath
func loop(ch chan int, done chan struct{}) {
	time.Sleep(time.Millisecond) // want `calls time.Sleep on the hot path`
	fmt.Println("tick")          // want `calls fmt.Println on the hot path`
	helper()
	ch <- 1 // want `blocking channel send on the hot path`
	<-done  // want `blocking channel receive on the hot path`

	// Non-blocking channel use is the sanctioned shape.
	select {
	case v := <-ch:
		_ = v
	default:
	}
	select {
	case done <- struct{}{}:
	default:
	}

	// A goroutine body runs elsewhere; spawning it is allowed.
	go func() {
		time.Sleep(time.Second)
	}()
}

// stamp reads the clock on a hot path: time.Now is flagged with its
// replacement, while time.Since on an earlier stamp — one monotonic read
// — is not.
//
//orthrus:hotpath
func stamp(start time.Time) time.Duration {
	_ = time.Now() // want `calls time.Now \(reads the wall and the monotonic clock; metrics.Now reads the monotonic one\) on the hot path`
	return time.Since(start)
}

// helper is reached transitively from loop.
func helper() {
	os.ReadFile("x") // want `calls os.ReadFile \(file I/O\) on the hot path`
}

// idle is a justified traversal boundary: loopWithBoundary stays clean.
//
//orthrus:coldpath testdata: idle backoff may sleep
func idle() {
	time.Sleep(time.Microsecond)
}

//orthrus:hotpath
func loopWithBoundary() {
	idle()
}

// A bare coldpath is itself a diagnostic.
//
//orthrus:coldpath
func bareColdpath() { // want `//orthrus:coldpath requires a reason`
	time.Sleep(time.Microsecond)
}

//orthrus:hotpath
func allowedSite(ch chan int) {
	//orthrus:allow(hotpath) testdata: startup-only send, measured window not yet open
	ch <- 1
}

// notHot is unannotated and unreachable from a root: anything goes.
func notHot() {
	time.Sleep(time.Second)
	fmt.Println("cold")
}
