package transport

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// compressiblePayload returns n bytes with the redundancy of small-int
// tensor data: deflate shrinks it, but not to nothing.
func compressiblePayload(rng *rand.Rand, n int) []byte {
	p := make([]byte, n)
	for i := 0; i+4 <= n; i += 4 {
		binary.LittleEndian.PutUint32(p[i:], uint32(rng.Intn(16)))
	}
	return p
}

func randomPayload(rng *rand.Rand, n int) []byte {
	p := make([]byte, n)
	rng.Read(p)
	return p
}

// compressedPair returns a connected pair that both negotiated
// FeatCompress.
func compressedPair(t *testing.T) (a, b *Conn) {
	t.Helper()
	a, b = Pipe(nil, nil)
	a.SetFeatures(FeatCompress)
	b.SetFeatures(FeatCompress)
	t.Cleanup(func() {
		_ = a.Close()
		_ = b.Close()
	})
	return a, b
}

// A reused deflater emits exactly the bytes a fresh flate.Writer
// would, frame after frame, so pooling never changes the wire. The
// 700 kB frame outgrows wireBufCap and takes the drop path.
func TestCompressPooledMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i, n := range []int{512, 4096, 70_000, 300_000, 1024, 700_000, 100_000} {
		raw := compressiblePayload(rng, n)
		cb := compressPayload(raw)
		if cb == nil {
			t.Fatalf("payload %d (%d B) did not compress", i, n)
		}
		var want bytes.Buffer
		var tmp [binary.MaxVarintLen64]byte
		want.Write(tmp[:binary.PutUvarint(tmp[:], uint64(n))])
		fw, _ := flate.NewWriter(&want, flate.BestSpeed)
		_, _ = fw.Write(raw)
		_ = fw.Close()
		if !bytes.Equal(cb.Bytes(), want.Bytes()) {
			t.Errorf("payload %d (%d B): pooled deflate differs from a fresh writer", i, n)
		}
		releaseCompressed(cb)
	}
	if cb := compressPayload(randomPayload(rng, 4096)); cb != nil {
		t.Error("incompressible payload was sent compressed")
	}
}

// Pooled deflaters, inflaters and frame buffers are shared by every
// conn in the process: concurrent senders must never see each other's
// bytes, and a corrupt frame must not leave state behind for the next.
func TestCompressPooledConcurrentRoundTrip(t *testing.T) {
	const pairs, frames = 4, 12
	var wg sync.WaitGroup
	errs := make(chan error, 2*pairs)
	for p := 0; p < pairs; p++ {
		a, b := compressedPair(t)
		payloads := make([][]byte, frames)
		rng := rand.New(rand.NewSource(int64(p)))
		for i := range payloads {
			n := rng.Intn(300_001)
			if i%2 == 0 {
				payloads[i] = compressiblePayload(rng, n)
			} else {
				payloads[i] = randomPayload(rng, n)
			}
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, pl := range payloads {
				if err := a.SendEnv(MsgExec, Envelope{Trace: 1}, pl); err != nil {
					errs <- err
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i, pl := range payloads {
				mt, _, got, err := b.RecvEnv()
				if err != nil {
					errs <- err
					return
				}
				if mt != MsgExec || !bytes.Equal(got, pl) {
					errs <- fmt.Errorf("pair %d frame %d (%d B): payload corrupted in flight", p, i, len(pl))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// A truncated deflate stream fails mid-inflate on one conn ...
	raw := compressiblePayload(rand.New(rand.NewSource(9)), 64<<10)
	good := compressedCopy(raw)
	bad, victim := compressedPair(t)
	go func() {
		_ = writeFrameCompressed(bad.bw, MsgExec, Envelope{}, good[:len(good)/2])
		_ = bad.bw.Flush()
	}()
	if _, _, _, err := victim.RecvEnv(); !IsFrameError(err) {
		t.Fatalf("truncated compressed frame: err = %v, want a FrameError", err)
	}
	if !victim.Dead() {
		t.Error("a corrupt compressed frame must poison its conn")
	}
	// ... and the next valid frame on another conn still inflates.
	a, b := compressedPair(t)
	go func() { _ = a.Send(MsgExec, raw) }()
	if _, got, err := b.Recv(); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("valid frame after a corrupt one: err = %v, equal = %v", err, bytes.Equal(got, raw))
	}
}

// The steady-state compressed round trip allocates about the inflated
// payload the receiver owns, not a deflater (1.2 MB) per frame.
func TestCompressedSendAllocatesUnderTwicePayload(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	const size, rounds = 64 << 10, 200
	a, b := compressedPair(t)
	payload := compressiblePayload(rand.New(rand.NewSource(1)), size)
	roundTrips := func(n int) {
		done := make(chan error, 1)
		go func() {
			for i := 0; i < n; i++ {
				if _, _, err := b.Recv(); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
		for i := 0; i < n; i++ {
			if err := a.SendEnv(MsgExec, Envelope{}, payload); err != nil {
				t.Fatal(err)
			}
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	roundTrips(4) // fill the pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	roundTrips(rounds)
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / rounds
	if per >= 2*size {
		t.Errorf("compressed round trip allocates %d B, want < %d (2 x payload)", per, 2*size)
	}
	t.Logf("%d B allocated per %d B compressed round trip", per, size)
}

// A compressed body claiming more than deflate could inflate it to is a
// FrameError before anything is allocated for it: 6 bytes claiming
// 64 MiB used to cost the receiver the 64 MiB first.
func TestDecompressRefusesImpossibleClaim(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	body := append(binary.AppendUvarint(nil, 64<<20), 0x03, 0x00) // an empty fixed-Huffman block
	if len(body) != 6 {
		t.Fatalf("body is %d bytes", len(body))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := decompressPayload(body)
	runtime.ReadMemStats(&after)
	if !IsFrameError(err) {
		t.Fatalf("want a FrameError, got %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("refusing a 64 MiB claim allocated %d B", got)
	}
}

// Deflate's best case stays under the expansion bound: 16 MiB of zeros
// round-trips at BestSpeed (what compressPayload sends, about 824:1)
// and at the default level a peer may use (about 1028:1).
func TestDecompressZeroPayloadRoundTrips(t *testing.T) {
	raw := make([]byte, 16<<20)
	for _, level := range []int{flate.BestSpeed, flate.DefaultCompression} {
		var b bytes.Buffer
		b.Write(binary.AppendUvarint(nil, uint64(len(raw))))
		fw, err := flate.NewWriter(&b, level)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(raw); err != nil {
			t.Fatal(err)
		}
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := decompressPayload(b.Bytes())
		if err != nil || !bytes.Equal(back, raw) {
			t.Fatalf("level %d: %d compressed bytes do not round-trip: %v", level, b.Len(), err)
		}
		t.Logf("level %d: %d:1", level, len(raw)/b.Len())
	}
	if cp := compressedCopy(raw); cp == nil || len(cp) > len(raw)/800 {
		t.Fatalf("compressPayload: %d bytes", len(cp))
	}
}
