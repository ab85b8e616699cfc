// Command revelio-attest is the stand-alone verifier: it reads a
// serialized attestation report (or a JSON bundle) and validates it
// against a KDS and an expected measurement — the command-line equivalent
// of what the web extension does per session. It is built entirely on the
// public SDK (revelio/attestation/snp).
//
// Usage:
//
//	revelio-attest -kds http://127.0.0.1:8080 \
//	    -golden <hex-measurement> [-bundle] < report.bin
//
// The report is read from stdin. Exit status 0 means the evidence is
// valid and the measurement matches.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"revelio/attestation/snp"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "revelio-attest:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("revelio-attest", flag.ContinueOnError)
	kdsURL := fs.String("kds", "", "base URL of the (simulated) AMD KDS")
	goldenHex := fs.String("golden", "", "expected measurement in hex (omit to skip the policy check)")
	isBundle := fs.Bool("bundle", false, "input is a JSON report+payload bundle")
	timeout := fs.Duration("timeout", 30*time.Second, "overall verification timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *kdsURL == "" {
		return fmt.Errorf("-kds is required")
	}

	var policy snp.TrustPolicy
	if *goldenHex != "" {
		golden, err := snp.ParseMeasurement(*goldenHex)
		if err != nil {
			return err
		}
		policy = snp.NewStaticGolden(golden)
	}
	verifier := snp.NewVerifier(snp.NewKDSClient(*kdsURL, nil), policy)

	raw, err := io.ReadAll(io.LimitReader(in, 1<<20))
	if err != nil {
		return fmt.Errorf("read input: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var res *snp.Result
	if *isBundle {
		bundle, err := snp.DecodeBundle(raw)
		if err != nil {
			return err
		}
		res, err = verifier.VerifyEvidence(ctx, bundle)
		if err != nil {
			return err
		}
	} else {
		res, err = verifier.VerifyRaw(ctx, raw)
		if err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "report OK\n")
	fmt.Fprintf(out, "measurement: %s\n", res.Report.Measurement)
	fmt.Fprintf(out, "chip id:     %x...\n", res.Report.ChipID[:8])
	fmt.Fprintf(out, "tcb version: %d\n", res.Report.TCBVersion)
	if policy == nil {
		fmt.Fprintf(out, "note: no -golden given; measurement policy not checked\n")
	}
	return nil
}
