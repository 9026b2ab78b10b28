package shm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The tests in this file drive the park/wake protocol of the four ring
// wait sites. None of them reads a clock or bounds a latency: with no
// poll behind a parked waiter, a lost wake is a hang, and go test
// -timeout is what fails it.

// parkRounds is how many times each stress test makes a goroutine enter
// each wait site with nothing to take, so that it parks and needs the
// peer's wake byte to return.
const parkRounds = 100_000

// atProcs runs f at GOMAXPROCS 1 and at 2, giving each half of
// parkRounds: one processor makes every wake a goroutine handoff, two
// let waker and waiter race for real.
func atProcs(t *testing.T, f func(t *testing.T, rounds int64)) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t, parkRounds/2)
		})
	}
}

// awaitParked yields until a waiter has raised its park word. The waiter
// may not have blocked yet, but it can no longer return without a wake
// or its link dying, which is all a close-while-parked test needs.
func awaitParked(flag *atomic.Uint32) {
	for flag.Load() == 0 {
		runtime.Gosched()
	}
}

// stressRecord is one record of a stress stream: an 8-byte sequence
// number, a last-record flag, and a fixed body.
const stressRecord = 1000

var stressBody = bytes.Repeat([]byte{0xa5}, stressRecord-9)

// writeStress writes numbered records with write until done reports
// true, then one record flagged last.
func writeStress(write func([]byte) error, done func() bool) error {
	rec := make([]byte, stressRecord)
	copy(rec[9:], stressBody)
	for i := uint64(0); ; i++ {
		last := done()
		binary.LittleEndian.PutUint64(rec, i)
		rec[8] = 0
		if last {
			rec[8] = 1
		}
		if err := write(rec); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		if last {
			return nil
		}
	}
}

// readStress reads records from r until the last one, checking that
// every record arrives once, in order, intact.
func readStress(r io.Reader) error {
	got := make([]byte, stressRecord)
	for i := uint64(0); ; i++ {
		if _, err := io.ReadFull(r, got); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		if seq := binary.LittleEndian.Uint64(got); seq != i {
			return fmt.Errorf("record %d arrived as %d", i, seq)
		}
		if !bytes.Equal(got[9:], stressBody) {
			return fmt.Errorf("record %d corrupted", i)
		}
		if got[8] == 1 {
			return nil
		}
	}
}

// TestConnParkWakeStress streams records through a 4 KB ring until the
// writer has found it full, and the reader found it empty, rounds times
// each: over both GOMAXPROCS settings, Conn.waitSpace and Conn.waitData
// each park and wake at least parkRounds times.
func TestConnParkWakeStress(t *testing.T) {
	atProcs(t, func(t *testing.T, rounds int64) {
		dc, ac := connPair(t, minRingBytes)
		var spaceParks, dataParks atomic.Int64
		waitSpace := dc.w.waitSpace
		dc.w.waitSpace = func(need uint64) error {
			if dc.tx.slotHead(0).Load() < need {
				spaceParks.Add(1)
			}
			return waitSpace(need)
		}
		waitData := ac.rd.waitData
		ac.rd.waitData = func(pos uint64) error {
			if ac.rx.tail.Load() <= pos {
				dataParks.Add(1)
			}
			return waitData(pos)
		}

		werr := make(chan error, 1)
		go func() {
			werr <- writeStress(func(rec []byte) error {
				_, err := dc.Write(rec)
				return err
			}, func() bool {
				return spaceParks.Load() >= rounds && dataParks.Load() >= rounds
			})
		}()
		if err := readStress(ac); err != nil {
			t.Fatalf("reader: %v", err)
		}
		if err := <-werr; err != nil {
			t.Fatalf("writer: %v", err)
		}
	})
}

// TestBroadcastParkWakeStress is the same for a broadcast ring with two
// readers: the writer's BroadcastGroup.waitSpace, and each reader's
// BusReader.waitData, park at least parkRounds times in all. Two readers race
// to swap the one writer park word. Eviction is off, so a lost wake
// hangs instead of being papered over by an eviction.
func TestBroadcastParkWakeStress(t *testing.T) {
	atProcs(t, func(t *testing.T, rounds int64) {
		g := testGroup(t, minRingBytes)
		g.EvictAfter = 24 * time.Hour
		var spaceParks atomic.Int64
		waitSpace := g.w.waitSpace
		g.w.waitSpace = func(need uint64) error {
			if g.br.minHead(g.br.tail.Load()) < need {
				spaceParks.Add(1)
			}
			return waitSpace(need)
		}
		readers := make([]*BusReader, 2)
		dataParks := make([]atomic.Int64, len(readers))
		for i := range readers {
			r, err := JoinBroadcast(g.Addr(), fmt.Sprintf("r%d", i))
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			waitData := r.rd.waitData
			parks := &dataParks[i]
			r.rd.waitData = func(pos uint64) error {
				if r.br.tail.Load() <= pos {
					parks.Add(1)
				}
				return waitData(pos)
			}
			readers[i] = r
		}

		rerr := make(chan error, len(readers))
		for _, r := range readers {
			go func() { rerr <- readStress(r) }()
		}
		sink := g.Sink()
		err := writeStress(func(rec []byte) error {
			if _, err := sink.Write(rec); err != nil {
				return err
			}
			return sink.Flush()
		}, func() bool {
			for i := range dataParks {
				if dataParks[i].Load() < rounds {
					return false
				}
			}
			return spaceParks.Load() >= rounds
		})
		if err != nil {
			t.Fatalf("writer: %v", err)
		}
		for range readers {
			if err := <-rerr; err != nil {
				t.Fatalf("reader: %v", err)
			}
		}
		if ev := g.Evictions(); ev != 0 {
			t.Fatalf("%d evictions with eviction off", ev)
		}
	})
}

// parkedRead starts a Read on r and returns its error channel once the
// reader has raised flag.
func parkedRead(r io.Reader, flag *atomic.Uint32) <-chan error {
	errc := make(chan error, 1)
	go func() {
		_, err := r.Read(make([]byte, 16))
		errc <- err
	}()
	awaitParked(flag)
	return errc
}

// parkedWrite starts a Write of twice the ring on w, which nobody
// drains, and returns its error channel once the writer has raised flag.
func parkedWrite(w io.Writer, flag *atomic.Uint32) <-chan error {
	errc := make(chan error, 1)
	go func() {
		_, err := w.Write(make([]byte, 2*minRingBytes))
		errc <- err
	}()
	awaitParked(flag)
	return errc
}

// TestConnCloseWhileParked parks each Conn wait site, ends the link from
// one side or the other, and checks the waiter's error: io.EOF for a
// reader, errRingClosed for a writer. Closing a peer's socket without
// its Close is how a crashed peer looks.
func TestConnCloseWhileParked(t *testing.T) {
	cases := []struct {
		name   string
		writer bool
		end    func(self, peer *Conn)
	}{
		{"reader/local Close", false, func(self, _ *Conn) { self.Close() }},
		{"reader/peer socket closed", false, func(_, peer *Conn) { peer.sock.Close() }},
		{"writer/local Close", true, func(self, _ *Conn) { self.Close() }},
		{"writer/peer socket closed", true, func(_, peer *Conn) { peer.sock.Close() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			self, peer := connPair(t, minRingBytes)
			var errc <-chan error
			want := io.EOF
			if tc.writer {
				errc = parkedWrite(self, self.tx.wrPark)
				want = errRingClosed
			} else {
				errc = parkedRead(self, self.rx.slotPark(0))
			}
			tc.end(self, peer)
			if err := <-errc; !errors.Is(err, want) {
				t.Fatalf("parked waiter returned %v, want %v", err, want)
			}
		})
	}
}

// TestBusReaderCloseWhileParked parks a broadcast reader on an empty ring
// and checks it returns io.EOF when it leaves the group itself and when
// the group closes under it.
func TestBusReaderCloseWhileParked(t *testing.T) {
	for _, groupCloses := range []bool{false, true} {
		t.Run(fmt.Sprintf("groupCloses=%v", groupCloses), func(t *testing.T) {
			g := testGroup(t, minRingBytes)
			r, err := JoinBroadcast(g.Addr(), "r")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			errc := parkedRead(r, r.br.slotPark(r.rd.slot))
			if groupCloses {
				g.Close()
			} else {
				r.Close()
			}
			if err := <-errc; !errors.Is(err, io.EOF) {
				t.Fatalf("parked reader returned %v, want io.EOF", err)
			}
		})
	}
}

// TestBroadcastWriterCloseWhileParked parks the broadcast writer behind a
// reader that never reads. When the group closes, the writer returns
// errRingClosed. When the reader leaves instead, the writer is no longer
// bound by its head and completes: that wake comes from the group's own
// member loop, not from a reader's release.
func TestBroadcastWriterCloseWhileParked(t *testing.T) {
	for _, groupCloses := range []bool{false, true} {
		t.Run(fmt.Sprintf("groupCloses=%v", groupCloses), func(t *testing.T) {
			g := testGroup(t, minRingBytes)
			g.EvictAfter = 24 * time.Hour
			r, err := JoinBroadcast(g.Addr(), "stalled")
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { r.Close() })
			errc := parkedWrite(g.Sink(), g.br.wrPark)
			var want error
			if groupCloses {
				g.Close()
				want = errRingClosed
			} else {
				r.Close()
			}
			if err := <-errc; !errors.Is(err, want) {
				t.Fatalf("parked writer returned %v, want %v", err, want)
			}
		})
	}
}

// TestBroadcastEvictWhileWriterParked parks the broadcast writer behind a
// reader that never reads and lets the eviction timer fire: the writer
// completes, exactly one reader was evicted, and the evicted reader's
// next read returns ErrEvicted. The timer runs only while the writer is
// parked, so the eviction itself shows that it parked.
func TestBroadcastEvictWhileWriterParked(t *testing.T) {
	g := testGroup(t, minRingBytes)
	g.EvictAfter = time.Millisecond
	r, err := JoinBroadcast(g.Addr(), "stalled")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	if _, err := g.Sink().Write(make([]byte, 2*minRingBytes)); err != nil {
		t.Fatalf("parked writer returned %v after the eviction, want nil", err)
	}
	if ev := g.Evictions(); ev != 1 {
		t.Fatalf("%d evictions, want 1", ev)
	}
	if _, err := r.Read(make([]byte, 16)); !errors.Is(err, ErrEvicted) {
		t.Fatalf("evicted reader returned %v, want ErrEvicted", err)
	}
}
