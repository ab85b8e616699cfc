package bench

import (
	"bytes"
	"fmt"
	"time"

	"revelio/internal/blockdev"
	"revelio/internal/dmcrypt"
	"revelio/internal/parallel"
)

// Fig5Config tunes the dm-crypt latency sweep.
type Fig5Config struct {
	// Sizes are the total transfer sizes; nil selects DefaultFig5Sizes.
	Sizes []int64
	// Concurrency is the worker count for the parallel-engine rows; 0
	// selects GOMAXPROCS. The serial rows always run with one worker.
	Concurrency int
	// RequestSize is the per-request transfer size; 0 selects the
	// paper's 4 KiB dd blocks. Larger requests give the parallel engine
	// more sectors to shard over.
	RequestSize int64
}

// Fig5Point is one I/O size in the dm-crypt latency sweep, measured
// against the plain device, the serial engine, and the parallel engine.
type Fig5Point struct {
	SizeBytes int64
	Plain     time.Duration
	Crypt     time.Duration // serial engine (Concurrency = 1)
	CryptPar  time.Duration // parallel engine
	Overhead  float64       // (crypt-plain)/plain, serial engine
	Speedup   float64       // crypt / cryptPar
}

// Fig5Result reproduces Fig 5: dm-crypt read/write latency vs plain
// device across request sizes (dd with 4 KiB blocks in the paper), now
// with a serial and a parallel row per size so the storage engine's
// scaling is part of the figure.
type Fig5Result struct {
	Reads  []Fig5Point
	Writes []Fig5Point
	// Workers is the resolved parallel-engine worker count.
	Workers int
	// RequestSize is the per-request transfer size used.
	RequestSize int64
}

// DefaultFig5Sizes mirrors the paper's sweep up to 256 MiB; callers with
// a time budget pass a truncated list.
var DefaultFig5Sizes = []int64{4 * KiB, 64 * KiB, 1 * MiB, 4 * MiB, 16 * MiB, 64 * MiB, 256 * MiB}

// RunFig5 measures sequential read and write latency through dm-crypt
// versus the raw device for each total size, in 4 KiB requests as the
// paper's dd runs (tunable via RequestSize), once through the serial
// engine and once through the parallel one. Both engines work on
// volumes formatted identically, so the comparison is pure engine cost.
func RunFig5(cfg Fig5Config) (*Fig5Result, error) {
	sizes := cfg.Sizes
	if len(sizes) == 0 {
		sizes = DefaultFig5Sizes
	}
	maxSize := sizes[0]
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	requestSize := cfg.RequestSize
	if requestSize == 0 {
		requestSize = 4 * KiB
	}

	plainDev := blockdev.NewMem(maxSize)
	serialRaw := blockdev.NewMem(maxSize + dmcrypt.HeaderSectors*dmcrypt.SectorSize)
	serialDev, err := dmcrypt.Format(serialRaw, []byte("bench-sealing-key"),
		dmcrypt.Options{Tuning: dmcrypt.Tuning{Concurrency: 1}})
	if err != nil {
		return nil, fmt.Errorf("bench: fig5 format serial: %w", err)
	}
	parRaw := blockdev.NewMem(maxSize + dmcrypt.HeaderSectors*dmcrypt.SectorSize)
	parDev, err := dmcrypt.Format(parRaw, []byte("bench-sealing-key"),
		dmcrypt.Options{Tuning: dmcrypt.Tuning{Concurrency: cfg.Concurrency}})
	if err != nil {
		return nil, fmt.Errorf("bench: fig5 format parallel: %w", err)
	}

	pattern := make([]byte, requestSize)
	for i := range pattern {
		pattern[i] = byte(i*131 + 17)
	}
	sweep := func(write bool) ([]Fig5Point, error) {
		out := make([]Fig5Point, 0, len(sizes))
		buf := make([]byte, requestSize)
		if write {
			copy(buf, pattern)
		}
		for _, size := range sizes {
			run := func(dev blockdev.Device) (time.Duration, error) {
				var n int64
				start := time.Now()
				for off := int64(0); off < size; off += requestSize {
					n = int64(requestSize)
					if size-off < n {
						n = size - off
					}
					var err error
					if write {
						err = dev.WriteAt(buf[:n], off)
					} else {
						err = dev.ReadAt(buf[:n], off)
					}
					if err != nil {
						return 0, err
					}
				}
				elapsed := time.Since(start)
				// Every request wrote the same pattern, so the last read
				// must hold its prefix whichever engine decrypted it.
				if !write && !bytes.Equal(buf[:n], pattern[:n]) {
					return 0, fmt.Errorf("bench: fig5 %s read-back differs from what was written", humanSize(size))
				}
				return elapsed, nil
			}
			plain, err := run(plainDev)
			if err != nil {
				return nil, err
			}
			crypt, err := run(serialDev)
			if err != nil {
				return nil, err
			}
			cryptPar, err := run(parDev)
			if err != nil {
				return nil, err
			}
			overhead, speedup := 0.0, 0.0
			if plain > 0 {
				overhead = float64(crypt-plain) / float64(plain)
			}
			if cryptPar > 0 {
				speedup = float64(crypt) / float64(cryptPar)
			}
			out = append(out, Fig5Point{
				SizeBytes: size, Plain: plain, Crypt: crypt, CryptPar: cryptPar,
				Overhead: overhead, Speedup: speedup,
			})
		}
		return out, nil
	}

	res := &Fig5Result{Workers: parallel.Workers(cfg.Concurrency), RequestSize: requestSize}
	// Writes first so reads see initialized sectors, as dd over a written
	// volume would.
	if res.Writes, err = sweep(true); err != nil {
		return nil, err
	}
	if res.Reads, err = sweep(false); err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints the two series with one row per size and engine.
func (r *Fig5Result) Render() string {
	render := func(name string, points []Fig5Point) string {
		rows := make([][]string, 0, 3*len(points))
		for _, p := range points {
			rows = append(rows,
				[]string{humanSize(p.SizeBytes), "plain", fmtMS(p.Plain), "-", "-"},
				[]string{humanSize(p.SizeBytes), "serial", fmtMS(p.Crypt), fmtPct(p.Overhead), "1.00x"},
				[]string{humanSize(p.SizeBytes), "parallel", fmtMS(p.CryptPar),
					fmtPct(safeRatio(p.CryptPar-p.Plain, p.Plain)), fmt.Sprintf("%.2fx", p.Speedup)},
			)
		}
		return name + "\n" + table([]string{"Size", "Engine", "Latency(ms)", "Overhead(%)", "Speedup"}, rows)
	}
	return fmt.Sprintf("Fig 5: dm-crypt I/O latency (%s requests, parallel = %d workers)\n",
		humanSize(r.RequestSize), r.Workers) +
		render("reads:", r.Reads) + render("writes:", r.Writes)
}

func safeRatio(num, den time.Duration) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func humanSize(n int64) string {
	switch {
	case n >= MiB:
		return fmt.Sprintf("%dMiB", n/MiB)
	case n >= KiB:
		return fmt.Sprintf("%dKiB", n/KiB)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
