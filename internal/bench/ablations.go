package bench

import (
	"fmt"
	"time"

	"revelio/internal/blockdev"
	"revelio/internal/dmcrypt"
	"revelio/internal/kdf"
)

// AblationVerityResult sweeps the dm-verity hash-block size (DESIGN.md
// ablation 1): larger blocks mean shallower trees but more hashing per
// verified read.
type AblationVerityResult struct {
	Points []Fig6Point // reusing the plain-vs-verity shape
	Blocks []int
}

// RunAblationVerityBlockSize measures a fixed 8 MiB read under different
// verity block sizes.
func RunAblationVerityBlockSize(blockSizes []int) (*AblationVerityResult, error) {
	if len(blockSizes) == 0 {
		blockSizes = []int{1 * KiB, 4 * KiB, 16 * KiB, 64 * KiB}
	}
	const readSize = 8 * MiB
	res := &AblationVerityResult{Blocks: blockSizes}
	for _, bs := range blockSizes {
		fig, err := RunFig6(Fig6Config{Sizes: []int64{readSize}, BlockSize: bs})
		if err != nil {
			return nil, fmt.Errorf("bench: verity ablation bs=%d: %w", bs, err)
		}
		res.Points = append(res.Points, fig.Points[0])
	}
	return res, nil
}

// Render prints the sweep.
func (r *AblationVerityResult) Render() string {
	rows := make([][]string, 0, len(r.Points))
	for i, p := range r.Points {
		rows = append(rows, []string{
			humanSize(int64(r.Blocks[i])), fmtMS(p.Verity), fmt.Sprintf("%.2fx", p.Slowdown),
		})
	}
	return "Ablation: dm-verity hash-block size (8 MiB read)\n" +
		table([]string{"Block size", "Read(ms)", "Slowdown"}, rows)
}

// AblationPBKDF2Result sweeps the dm-crypt PBKDF2 iteration count
// (DESIGN.md ablation 2): unlock latency vs brute-force cost.
type AblationPBKDF2Result struct {
	Iterations []int
	Unlock     []time.Duration
	// Rounds is the number of PBKDF2 HMAC invocations each unlock
	// executed — the cost the iteration count buys, on any machine.
	Rounds []uint64
}

// RunAblationPBKDF2 measures volume unlock time across iteration counts.
func RunAblationPBKDF2(iterations []int) (*AblationPBKDF2Result, error) {
	if len(iterations) == 0 {
		iterations = []int{100, 1000, 10000, 100000}
	}
	res := &AblationPBKDF2Result{Iterations: iterations}
	for _, iters := range iterations {
		raw := blockdev.NewMem(dmcrypt.HeaderSectors*dmcrypt.SectorSize + 64*KiB)
		if _, err := dmcrypt.Format(raw, []byte("key"), dmcrypt.Options{Iterations: iters}); err != nil {
			return nil, fmt.Errorf("bench: pbkdf2 ablation format: %w", err)
		}
		rounds := kdf.PBKDF2Rounds()
		start := time.Now()
		if _, err := dmcrypt.Open(raw, []byte("key")); err != nil {
			return nil, fmt.Errorf("bench: pbkdf2 ablation open: %w", err)
		}
		res.Unlock = append(res.Unlock, time.Since(start))
		res.Rounds = append(res.Rounds, kdf.PBKDF2Rounds()-rounds)
	}
	return res, nil
}

// Render prints the sweep.
func (r *AblationPBKDF2Result) Render() string {
	rows := make([][]string, 0, len(r.Iterations))
	for i, iters := range r.Iterations {
		rows = append(rows, []string{fmt.Sprintf("%d", iters), fmtMS(r.Unlock[i])})
	}
	return "Ablation: PBKDF2 iteration count vs volume unlock latency\n" +
		table([]string{"Iterations", "Unlock(ms)"}, rows)
}
