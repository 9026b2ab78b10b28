package shm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// testRing returns a ring with one reader slot attached at offset 0 —
// one direction of a Conn — and its writer and reader cursors.
func testRing(t *testing.T, capacity uint64) (*bring, *bringWriter, *bringReader) {
	t.Helper()
	b := testBring(t, capacity, 1)
	slot, _ := b.attach(0)
	return b, newBringWriter(b), newBringReader(b, slot)
}

// TestRingRoundtripWraparound streams far more data than the ring holds
// through a writer/reader pair on two goroutines, with record sizes chosen
// to land on every wraparound seam, and verifies the byte stream survives
// intact.
func TestRingRoundtripWraparound(t *testing.T) {
	_, w, rd := testRing(t, minRingBytes)

	rng := rand.New(rand.NewSource(7))
	var sent []byte
	for len(sent) < 64<<10 {
		n := 1 + rng.Intn(3000)
		chunk := make([]byte, n)
		rng.Read(chunk)
		sent = append(sent, chunk...)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Vary write sizes so records split at odd offsets relative to
		// the capacity.
		rem := sent
		rng := rand.New(rand.NewSource(8))
		for len(rem) > 0 {
			n := 1 + rng.Intn(2500)
			if n > len(rem) {
				n = len(rem)
			}
			if _, err := w.Write(rem[:n]); err != nil {
				t.Errorf("write: %v", err)
				return
			}
			if rng.Intn(3) == 0 {
				if err := w.Flush(); err != nil {
					t.Errorf("flush: %v", err)
					return
				}
			}
			rem = rem[n:]
		}
		if err := w.Flush(); err != nil {
			t.Errorf("final flush: %v", err)
		}
	}()

	got := make([]byte, len(sent))
	if _, err := io.ReadFull(rd, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	wg.Wait()
	if !bytes.Equal(sent, got) {
		t.Fatal("byte stream corrupted through the ring")
	}
}

// TestRingTrainLargerThanRing proves a single frame train bigger than the
// whole ring streams through chunked records instead of deadlocking.
func TestRingTrainLargerThanRing(t *testing.T) {
	_, w, rd := testRing(t, minRingBytes)

	payload := make([]byte, 3*minRingBytes)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	go func() {
		if _, err := w.Write(payload); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		if err := w.Flush(); err != nil {
			t.Errorf("flush: %v", err)
		}
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(rd, got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(payload, got) {
		t.Fatal("oversized train corrupted")
	}
}

// TestRingSequenceSkewDetected corrupts a record's sequence number in
// place and asserts the reader refuses it instead of delivering bytes.
func TestRingSequenceSkewDetected(t *testing.T) {
	b, w, rd := testRing(t, minRingBytes)
	if _, err := w.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Sequence lives at bytes 4..8 of the record header, at offset 0.
	b.data[4] ^= 0xff
	if _, err := rd.Read(make([]byte, 8)); !errors.Is(err, ErrRingCorrupt) {
		t.Fatalf("corrupted sequence read err = %v, want ErrRingCorrupt", err)
	}
}

// TestRingCorruptLengthDetected corrupts a record's length prefix and
// asserts the reader reports corruption rather than overrunning the
// published tail.
func TestRingCorruptLengthDetected(t *testing.T) {
	b, w, rd := testRing(t, minRingBytes)
	if _, err := w.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	b.data[0] = 0xff // declared length now far past the published tail
	if _, err := rd.Read(make([]byte, 8)); !errors.Is(err, ErrRingCorrupt) {
		t.Fatalf("corrupted length read err = %v, want ErrRingCorrupt", err)
	}
}

// connPair returns both ends of a fresh shm connection whose rings hold
// ringBytes each (0 means DefaultRingBytes).
func connPair(t *testing.T, ringBytes int) (dialer, acceptor *Conn) {
	t.Helper()
	b := New()
	b.Dir = t.TempDir()
	b.RingBytes = ringBytes
	ln, err := b.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	type res struct {
		c   net.Conn
		err error
	}
	acc := make(chan res, 1)
	go func() {
		c, err := ln.Accept()
		acc <- res{c, err}
	}()
	dc, err := b.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	ar := <-acc
	if ar.err != nil {
		t.Fatal(ar.err)
	}
	t.Cleanup(func() { dc.Close(); ar.c.Close() })
	return dc.(*Conn), ar.c.(*Conn)
}

// TestConnRendezvousRoundtrip drives the full Listen/Dial rendezvous and
// exchanges data both directions through the net.Conn surface.
func TestConnRendezvousRoundtrip(t *testing.T) {
	dc, ac := connPair(t, 0)
	msg := []byte("ping over shared memory")
	if _, err := dc.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(ac, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msg, got) {
		t.Fatalf("got %q, want %q", got, msg)
	}
	reply := []byte("pong")
	if _, err := ac.Write(reply); err != nil {
		t.Fatal(err)
	}
	got = make([]byte, len(reply))
	if _, err := io.ReadFull(dc, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reply, got) {
		t.Fatalf("got %q, want %q", got, reply)
	}
}

// TestConnCloseUnblocksReader parks a reader on an empty ring, closes the
// peer, and requires the read to return an error promptly instead of
// hanging.
func TestConnCloseUnblocksReader(t *testing.T) {
	dc, ac := connPair(t, 0)
	errCh := make(chan error, 1)
	go func() {
		_, err := ac.Read(make([]byte, 16))
		errCh <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the reader park
	dc.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("read after peer close returned nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader still blocked after peer close")
	}
}

// TestDialFallbackOnBadListener asserts a failed rendezvous (nobody
// listening) surfaces as a plain error — the cluster layer's cue to fall
// back to TCP.
func TestDialFallbackOnBadListener(t *testing.T) {
	b := New()
	b.Dir = t.TempDir()
	if _, err := b.Dial(b.Dir + "/nonexistent.sock"); err == nil {
		t.Fatal("dial of a dead socket path succeeded")
	}
}

// TestVersionSkewRefused speaks the rendezvous protocol with a wrong
// version byte and asserts the acceptor refuses rather than mapping
// rings it may misinterpret.
func TestVersionSkewRefused(t *testing.T) {
	b := New()
	b.Dir = t.TempDir()
	ln, err := b.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accErr := make(chan error, 1)
	go func() {
		_, err := ln.Accept()
		accErr <- err
	}()
	sock, err := net.Dial("unix", ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sock.Close()
	msg := binary.LittleEndian.AppendUint64(nil, bringMagic)
	msg = append(msg, RingVersion+1)
	msg = append(msg, make([]byte, 8)...)
	if _, err := sock.Write(msg); err != nil {
		t.Fatal(err)
	}
	if err := <-accErr; err == nil {
		t.Fatal("acceptor accepted a version-skewed rendezvous")
	}
}
