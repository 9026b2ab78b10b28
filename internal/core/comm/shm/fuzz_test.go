package shm

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzShmRingDecode feeds a one-slot ring reader (each direction of a
// Conn) hostile ring images; FuzzShmBroadcastRingDecode does the same for
// a two-slot ring (a broadcast group). Both run fuzzRingDecode over the
// one ring type and differ only in their seeds.
func FuzzShmRingDecode(f *testing.F) { fuzzRingDecode(f, 1) }

func FuzzShmBroadcastRingDecode(f *testing.F) { fuzzRingDecode(f, 2) }

// fuzzRingDecode seeds f with nslots-slot ring images — corrupted
// headers, hostile slot tables, truncated and overwritten records,
// corrupted length prefixes, wraparound seams and sequence skew — and
// fuzzes the reader. The invariant is memory safety plus bounded
// behavior — every outcome must be clean bytes or a clean error
// (ErrRingCorrupt, ErrEvicted, close), never a panic, an overrun of the
// published tail, or an unbounded wait.
func fuzzRingDecode(f *testing.F, nslots int) {
	size := bringSize(minRingBytes, nslots)
	dataOff := size - minRingBytes
	seed := func(records ...[]byte) []byte {
		mem := make([]byte, size)
		b, err := initBring(mem, minRingBytes, nslots)
		if err != nil {
			f.Fatal(err)
		}
		w := newBringWriter(b)
		for _, rec := range records {
			w.Write(rec)
			w.Flush()
		}
		return mem
	}
	// A well-formed two-record ring.
	f.Add(seed([]byte("hello"), bytes.Repeat([]byte{0xab}, 300)))
	// A record across the wraparound seam: fill, drain via one
	// reader, then publish past the end.
	{
		mem := make([]byte, size)
		b, _ := initBring(mem, minRingBytes, nslots)
		slot, _ := b.attach(0)
		w := newBringWriter(b)
		rd := newBringReader(b, slot)
		pre := bytes.Repeat([]byte{1}, minRingBytes-300)
		w.Write(pre)
		w.Flush()
		io.ReadFull(rd, make([]byte, len(pre)))
		w.Write(bytes.Repeat([]byte{2}, 600)) // wraps
		w.Flush()
		f.Add(mem)
	}
	// Corrupted sequence number.
	{
		mem := seed([]byte("skewed"))
		mem[dataOff+4] ^= 0xff
		f.Add(mem)
	}
	// Oversized length prefix.
	{
		mem := seed([]byte("x"))
		binary.LittleEndian.PutUint32(mem[dataOff:], 0xffffffff)
		f.Add(mem)
	}

	f.Fuzz(func(t *testing.T, mem []byte) {
		// Copy into an aligned, exactly-sized buffer: openBring validates
		// layout, so only the header/data bytes are fuzz-controlled.
		buf := make([]byte, len(mem))
		copy(buf, mem)
		b, err := openBring(buf)
		if err != nil {
			return // invalid layout must be rejected, and was
		}
		// Clamp into a consistent start state: reader in slot 0 at head 0,
		// every park flag clear, ring closed so a starved reader
		// terminates instead of spinning on fuzz-controlled emptiness.
		b.slotHead(0).Store(0)
		b.slotState(0).Store(slotActive)
		for i := 0; i < b.nslots; i++ {
			b.slotPark(i).Store(0)
		}
		b.wrPark.Store(0)
		b.closed.Store(1)
		if tail := b.tail.Load(); tail > b.cap {
			b.tail.Store(tail & b.mask) // keep the published window sane
		}
		b.frontier.Store(b.tail.Load())
		rd := newBringReader(b, 0)
		total := 0
		iters := 0
		var chunk [512]byte
		for total <= int(b.cap)+recHdrSize {
			iters++
			if iters > 1<<20 {
				t.Fatalf("decoder looped %d times (cap %d, total %d, pos %d, tail %d)",
					iters, b.cap, total, rd.pos, b.tail.Load())
			}
			n, err := rd.Read(chunk[:])
			if err != nil {
				break
			}
			if n <= 0 {
				t.Fatalf("Read returned %d with nil error", n)
			}
			total += n
		}
		if total > int(b.cap) {
			t.Fatalf("decoded %d bytes from a %d-byte ring window", total, b.cap)
		}
	})
}
