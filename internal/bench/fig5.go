package bench

import (
	"bytes"
	"fmt"
	"time"

	"revelio/internal/blockdev"
	"revelio/internal/dmcrypt"
)

// Fig5Config tunes the dm-crypt latency sweep.
type Fig5Config struct {
	// Sizes are the total transfer sizes; nil selects DefaultFig5Sizes.
	Sizes []int64
}

// fig5RequestSize is the per-request transfer size: the paper's dd runs
// use 4 KiB blocks.
const fig5RequestSize = 4 * KiB

// Fig5Point is one I/O size in the dm-crypt latency sweep, measured
// against the plain device.
type Fig5Point struct {
	SizeBytes int64
	Plain     time.Duration
	Crypt     time.Duration
	Overhead  float64 // (crypt-plain)/plain
}

// Fig5Result reproduces Fig 5: dm-crypt read/write latency vs plain
// device across transfer sizes (dd with 4 KiB blocks in the paper).
type Fig5Result struct {
	Reads  []Fig5Point
	Writes []Fig5Point
}

// DefaultFig5Sizes mirrors the paper's sweep up to 256 MiB; callers with
// a time budget pass a truncated list.
var DefaultFig5Sizes = []int64{4 * KiB, 64 * KiB, 1 * MiB, 4 * MiB, 16 * MiB, 64 * MiB, 256 * MiB}

// RunFig5 measures sequential read and write latency through dm-crypt
// versus the raw device for each total size, in 4 KiB requests as the
// paper's dd runs.
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

	plainDev := blockdev.NewMem(maxSize)
	cryptRaw := blockdev.NewMem(maxSize + dmcrypt.HeaderSectors*dmcrypt.SectorSize)
	cryptDev, err := dmcrypt.Format(cryptRaw, []byte("bench-sealing-key"), dmcrypt.Options{})
	if err != nil {
		return nil, fmt.Errorf("bench: fig5 format: %w", err)
	}

	pattern := make([]byte, fig5RequestSize)
	for i := range pattern {
		pattern[i] = byte(i*131 + 17)
	}
	sweep := func(write bool) ([]Fig5Point, error) {
		out := make([]Fig5Point, 0, len(sizes))
		buf := make([]byte, fig5RequestSize)
		if write {
			copy(buf, pattern)
		}
		for _, size := range sizes {
			run := func(dev blockdev.Device) (time.Duration, error) {
				var n int64
				start := time.Now()
				for off := int64(0); off < size; off += fig5RequestSize {
					n = min(fig5RequestSize, size-off)
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
				// must hold its prefix.
				if !write && !bytes.Equal(buf[:n], pattern[:n]) {
					return 0, fmt.Errorf("bench: fig5 %s read-back differs from what was written", humanSize(size))
				}
				return elapsed, nil
			}
			plain, err := run(plainDev)
			if err != nil {
				return nil, err
			}
			crypt, err := run(cryptDev)
			if err != nil {
				return nil, err
			}
			out = append(out, Fig5Point{
				SizeBytes: size, Plain: plain, Crypt: crypt,
				Overhead: safeRatio(crypt-plain, plain),
			})
		}
		return out, nil
	}

	res := &Fig5Result{}
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

// Render prints the two series with a plain and a dm-crypt row per size.
func (r *Fig5Result) Render() string {
	render := func(name string, points []Fig5Point) string {
		rows := make([][]string, 0, 2*len(points))
		for _, p := range points {
			rows = append(rows,
				[]string{humanSize(p.SizeBytes), "plain", fmtMS(p.Plain), "-"},
				[]string{humanSize(p.SizeBytes), "dm-crypt", fmtMS(p.Crypt), fmtPct(p.Overhead)},
			)
		}
		return name + "\n" + table([]string{"Size", "Device", "Latency(ms)", "Overhead(%)"}, rows)
	}
	return fmt.Sprintf("Fig 5: dm-crypt I/O latency (%s requests)\n", humanSize(fig5RequestSize)) +
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
