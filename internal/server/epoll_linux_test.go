package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// TestFailedHandoffDuringDrainAnswers: a binary stream whose handoff loses
// the race with Shutdown (its shard loop has already stopped) falls back to
// the goroutine pump, and that pump must still get Shutdown's read
// interrupt: the handler returns and the client gets its done line even
// though it never closes its side.
func TestFailedHandoffDuringDrainAnswers(t *testing.T) {
	s := New(Options{ProfileSeconds: 20, Shards: 1})
	ep := s.shards[0].eventLoop()
	if ep == nil {
		t.Skip("no shard event loop")
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for stopped := false; !stopped; time.Sleep(time.Millisecond) {
		ep.mu.Lock()
		stopped = ep.stopped
		ep.mu.Unlock()
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	cl, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	sv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		s.handleConn(sv)
	}()

	// The stream has no end frame and the client never closes: only the
	// drain interrupt can end it.
	body := synthBin(t, 0, 300, 0.01, 1000)
	fmt.Fprintf(cl, "sds/1 vm=late profile=20 frames=bin\n%s", body[:len(body)-1])
	lines := make(chan string, 8)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(cl)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
	var done string
	timeout := time.After(10 * time.Second)
	for done == "" {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("connection closed without a done line")
			}
			if strings.HasPrefix(line, "done ") {
				done = line
			}
		case <-timeout:
			t.Fatal("no done line: the fallback pump is blocked on a client that never closes")
		}
	}
	select {
	case <-handlerDone:
	case <-timeout:
		t.Fatal("handler did not return after its done line")
	}
	if !strings.HasPrefix(done, "done vm=late ") {
		t.Errorf("done line = %q", done)
	}
}
