// CryptPad example (paper §4.1): an end-to-end-encrypted collaboration
// suite hosted in a Revelio-protected confidential VM, written against
// the public SDK (revelio, revelio/webclient, revelio/apps/cryptpad).
//
// Two things compose here:
//
//   - E2E encryption means the server only ever stores ciphertext — but a
//     malicious server could still serve rigged client code or tamper
//     with stored blobs.
//   - Revelio attestation lets the users verify the exact server software
//     before trusting it, and the sealed persistent volume keeps pads
//     confidential at rest.
//
// The example walks a pad through two attested collaborators and then
// demonstrates the attack surface: server-side tampering of the stored
// ciphertext is detected by the clients.
//
// Run with: go run ./examples/cryptpad
package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"

	"revelio"
	"revelio/apps/cryptpad"
	"revelio/webclient"
)

const domain = "pad.example.org"

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "cryptpad example:", err)
		os.Exit(1)
	}
}

func run() error {
	ctx := context.Background()
	svc, err := revelio.New(ctx, revelio.WithProfile(revelio.ProfileCryptPad), revelio.WithDomain(domain))
	if err != nil {
		return err
	}
	defer svc.Close()
	if _, err := svc.Provision(ctx); err != nil {
		return err
	}

	// The pad server runs inside the confidential VM; its binary is part
	// of the measured rootfs.
	padServer := cryptpad.NewServer()
	if err := svc.ServeWeb(func(*revelio.Node) http.Handler { return padServer }); err != nil {
		return err
	}

	// --- Alice: attest the server, then create an encrypted pad ----------
	aliceBrowser := webclient.NewBrowser(svc.CARootPool(), 0)
	defer aliceBrowser.Close()
	aliceBrowser.Resolve(domain, svc.WebAddr(0))
	aliceExt := webclient.NewExtension(aliceBrowser, svc.Verifier())
	aliceExt.RegisterSite(domain, svc.Golden())
	if _, m, err := aliceExt.Navigate(ctx, domain, "/"); err == nil {
		fmt.Printf("alice attested %s (fresh attestation: %v)\n", domain, m.Attested)
	} else {
		return fmt.Errorf("alice attestation: %w", err)
	}

	pad, err := cryptpad.NewPad()
	if err != nil {
		return err
	}
	plaintext := []byte("design doc draft: revelio ships friday")
	ciphertext, err := pad.Seal(plaintext, 1)
	if err != nil {
		return err
	}
	if _, err := padServer.Put(pad.ID, ciphertext, 0); err != nil {
		return err
	}
	link := pad.ShareLink(domain)
	fmt.Printf("alice created pad %s and shared the link (key stays in the URL fragment)\n", pad.ID)

	// --- Bob: attest, then open the pad via the share link ---------------
	bobBrowser := webclient.NewBrowser(svc.CARootPool(), 0)
	defer bobBrowser.Close()
	bobBrowser.Resolve(domain, svc.WebAddr(0))
	bobExt := webclient.NewExtension(bobBrowser, svc.Verifier())
	bobExt.RegisterSite(domain, svc.Golden())
	if _, _, err := bobExt.Navigate(ctx, domain, "/"); err != nil {
		return fmt.Errorf("bob attestation: %w", err)
	}
	bobPad, err := cryptpad.ParseShareLink(link)
	if err != nil {
		return err
	}
	stored, version, err := padServer.Get(bobPad.ID)
	if err != nil {
		return err
	}
	decrypted, err := bobPad.Open(stored, version)
	if err != nil {
		return err
	}
	if !bytes.Equal(decrypted, plaintext) {
		return fmt.Errorf("bob decrypted %q, want %q", decrypted, plaintext)
	}
	fmt.Printf("bob attested the server and read the pad: %q\n", decrypted)

	// --- What the server sees / can do ------------------------------------
	if bytes.Contains(stored, []byte("revelio")) {
		return fmt.Errorf("BUG: plaintext visible server-side")
	}
	fmt.Println("server-side storage is ciphertext only (E2E holds)")

	tampered := append([]byte(nil), stored...)
	tampered[len(tampered)-1] ^= 1
	if _, err := bobPad.Open(tampered, version); err == nil {
		return fmt.Errorf("BUG: tampered pad decrypted")
	}
	fmt.Println("server-side tampering of the pad is detected by clients")
	fmt.Println("\ncryptpad example OK")
	return nil
}
