package bench

import (
	"fmt"
	"time"

	"revelio/internal/core"
	"revelio/internal/imagebuild"
)

// Table1Row is one Revelio-imposed boot delay.
type Table1Row struct {
	Service  string
	Latency  time.Duration
	Overhead float64 // fraction of total boot
}

// Table1Profile is one column pair of Table 1 (BN or CP).
type Table1Profile struct {
	Name      string
	TotalBoot time.Duration
	FirstBoot bool
	// Services and RootfsBytes size the image that booted: what the
	// paper's "BN boots slower than CP" comes from.
	Services    int
	RootfsBytes int64
	Rows        []Table1Row
}

// Table1Result reproduces Table 1: Revelio-imposed delays on first boot
// for the Boundary Node and CryptPad profiles.
type Table1Result struct {
	Profiles []Table1Profile
}

// RunTable1 boots one VM per profile and decomposes its first-boot time.
func RunTable1() (*Table1Result, error) {
	reg := imagebuild.NewRegistry()
	base := imagebuild.PublishUbuntuBase(reg)
	specs := []struct {
		name string
		spec imagebuild.Spec
	}{
		{"BN", imagebuild.BoundaryNodeSpec(base)},
		{"CP", imagebuild.CryptpadSpec(base)},
	}

	result := &Table1Result{}
	for _, s := range specs {
		d, err := core.New(core.Config{
			Spec:     s.spec,
			Registry: reg,
			Nodes:    1,
			Domain:   "svc.example.org",
		})
		if err != nil {
			return nil, fmt.Errorf("bench: table1 %s: %w", s.name, err)
		}
		tm := d.Nodes[0].VM.Timings()
		rootfsBytes := d.Image.Table.RootfsLen
		d.Close()

		total := tm.Total
		frac := func(d time.Duration) float64 {
			if total == 0 {
				return 0
			}
			return float64(d) / float64(total)
		}
		result.Profiles = append(result.Profiles, Table1Profile{
			Name:        s.name,
			TotalBoot:   total,
			FirstBoot:   tm.FirstBoot,
			Services:    len(s.spec.Services),
			RootfsBytes: rootfsBytes,
			Rows: []Table1Row{
				{"dm-crypt setup", tm.DmCryptSetup, frac(tm.DmCryptSetup)},
				{"dm-verity setup", tm.DmVeritySetup, frac(tm.DmVeritySetup)},
				{"dm-verity verify", tm.DmVerityVerify, frac(tm.DmVerityVerify)},
				{"Identity creation", tm.IdentityCreation, frac(tm.IdentityCreation)},
			},
		})
	}
	return result, nil
}

// Render prints the table in the paper's layout.
func (r *Table1Result) Render() string {
	header := []string{"Service"}
	for _, p := range r.Profiles {
		header = append(header, "Latency(ms) "+p.Name, "Overhead(%) "+p.Name)
	}
	var rows [][]string
	if len(r.Profiles) > 0 {
		for i := range r.Profiles[0].Rows {
			row := []string{r.Profiles[0].Rows[i].Service}
			for _, p := range r.Profiles {
				row = append(row, fmtMS(p.Rows[i].Latency), fmtPct(p.Rows[i].Overhead))
			}
			rows = append(rows, row)
		}
	}
	out := "Table 1: Revelio imposed delays on first boot\n" + table(header, rows)
	for _, p := range r.Profiles {
		out += fmt.Sprintf("total boot (%s): %s ms (first boot: %v)\n",
			p.Name, fmtMS(p.TotalBoot), p.FirstBoot)
	}
	return out
}
