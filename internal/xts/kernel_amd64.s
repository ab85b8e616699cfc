//go:build amd64 && !purego

#include "textflag.h"

// func cpuHasAES() bool
// CPUID leaf 1, ECX bit 25: AES-NI.
TEXT ·cpuHasAES(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// Key expansion. SubWord is AESKEYGENASSIST, so no S-box table is ever
// indexed by key material; the only branches are on nr and on dec being
// nil, both public.
//
// FOLD xors into X(k) the three left-shifted copies of itself, which
// turns [w0 w1 w2 w3] into [w0, w0^w1, w0^w1^w2, w0^w1^w2^w3] — the
// running xor of the FIPS-197 schedule. X3 is clobbered.
#define FOLD(k) \
	MOVO k, X3; \
	PSLLO $4, X3; PXOR X3, k; \
	PSLLO $4, X3; PXOR X3, k; \
	PSLLO $4, X3; PXOR X3, k

// EXPAND_A derives the next round key from prev (the key one slot back,
// which feeds RotWord/SubWord/Rcon) into cur (the key Nk words back) and
// stores it. AES-128 uses it with prev == cur.
#define EXPAND_A(rcon, prev, cur) \
	AESKEYGENASSIST $rcon, prev, X1; \
	PSHUFD $0xff, X1, X1; \
	FOLD(cur); \
	PXOR X1, cur; \
	MOVOU cur, (BX); \
	ADDQ $16, BX

// EXPAND_B is the AES-256 odd step: SubWord without RotWord or Rcon.
#define EXPAND_B(prev, cur) \
	AESKEYGENASSIST $0, prev, X1; \
	PSHUFD $0xaa, X1, X1; \
	FOLD(cur); \
	PXOR X1, cur; \
	MOVOU cur, (BX); \
	ADDQ $16, BX

// func expandKey(key *byte, nr int, enc, dec *[240]byte)
// nr is 10 (16-byte key) or 14 (32-byte key). dec may be nil.
TEXT ·expandKey(SB), NOSPLIT, $0-32
	MOVQ key+0(FP), AX
	MOVQ nr+8(FP), CX
	MOVQ enc+16(FP), BX
	MOVQ dec+24(FP), DX
	MOVOU (AX), X0
	MOVOU X0, (BX)
	ADDQ $16, BX
	CMPQ CX, $14
	JEQ  expand256

	EXPAND_A(0x01, X0, X0)
	EXPAND_A(0x02, X0, X0)
	EXPAND_A(0x04, X0, X0)
	EXPAND_A(0x08, X0, X0)
	EXPAND_A(0x10, X0, X0)
	EXPAND_A(0x20, X0, X0)
	EXPAND_A(0x40, X0, X0)
	EXPAND_A(0x80, X0, X0)
	EXPAND_A(0x1b, X0, X0)
	EXPAND_A(0x36, X0, X0)
	JMP  inverse

expand256:
	MOVOU 16(AX), X2
	MOVOU X2, (BX)
	ADDQ $16, BX
	EXPAND_A(0x01, X2, X0)
	EXPAND_B(X0, X2)
	EXPAND_A(0x02, X2, X0)
	EXPAND_B(X0, X2)
	EXPAND_A(0x04, X2, X0)
	EXPAND_B(X0, X2)
	EXPAND_A(0x08, X2, X0)
	EXPAND_B(X0, X2)
	EXPAND_A(0x10, X2, X0)
	EXPAND_B(X0, X2)
	EXPAND_A(0x20, X2, X0)
	EXPAND_B(X0, X2)
	EXPAND_A(0x40, X2, X0)

inverse:
	// Equivalent inverse cipher schedule: the encryption keys in reverse
	// order, the inner ones through InvMixColumns. BX is one past enc[nr].
	TESTQ DX, DX
	JEQ  done
	SUBQ $16, BX
	MOVOU (BX), X0
	MOVOU X0, (DX)
	DECQ CX
imc:
	SUBQ $16, BX
	ADDQ $16, DX
	MOVOU (BX), X0
	AESIMC X0, X0
	MOVOU X0, (DX)
	DECQ CX
	JNE  imc
	MOVOU -16(BX), X0
	MOVOU X0, 16(DX)
done:
	RET

// The XEX kernel: dst[i] = AES(src[i] ^ tweaks[i]) ^ tweaks[i], eight
// blocks in flight so the rounds pipeline. Every memory operand goes
// through an unaligned load: neither the round keys nor the caller's
// buffers are promised 16-byte alignment. Control flow depends only on
// n and nr. XEX_BODY expects AX = round keys, CX = nr, DI = dst, SI = src,
// DX = tweaks, BX = n (the loads stay in the TEXT blocks where vet's
// asmdecl can match them to the Go declarations).
#define EACH8(op) \
	op X8, X0; op X8, X1; op X8, X2; op X8, X3; \
	op X8, X4; op X8, X5; op X8, X6; op X8, X7

#define XOR8(base) \
	MOVOU   0(base), X8; PXOR X8, X0; \
	MOVOU  16(base), X9; PXOR X9, X1; \
	MOVOU  32(base), X8; PXOR X8, X2; \
	MOVOU  48(base), X9; PXOR X9, X3; \
	MOVOU  64(base), X8; PXOR X8, X4; \
	MOVOU  80(base), X9; PXOR X9, X5; \
	MOVOU  96(base), X8; PXOR X8, X6; \
	MOVOU 112(base), X9; PXOR X9, X7

#define XEX_BODY(round, last) \
	DECQ CX; \
wide: \
	CMPQ BX, $8; \
	JLT  narrow; \
	MOVOU   0(SI), X0; \
	MOVOU  16(SI), X1; \
	MOVOU  32(SI), X2; \
	MOVOU  48(SI), X3; \
	MOVOU  64(SI), X4; \
	MOVOU  80(SI), X5; \
	MOVOU  96(SI), X6; \
	MOVOU 112(SI), X7; \
	XOR8(DX); \
	MOVOU (AX), X8; \
	EACH8(PXOR); \
	LEAQ 16(AX), R8; \
	MOVQ CX, R9; \
wideround: \
	MOVOU (R8), X8; \
	EACH8(round); \
	ADDQ $16, R8; \
	DECQ R9; \
	JNE  wideround; \
	MOVOU (R8), X8; \
	EACH8(last); \
	XOR8(DX); \
	MOVOU X0,   0(DI); \
	MOVOU X1,  16(DI); \
	MOVOU X2,  32(DI); \
	MOVOU X3,  48(DI); \
	MOVOU X4,  64(DI); \
	MOVOU X5,  80(DI); \
	MOVOU X6,  96(DI); \
	MOVOU X7, 112(DI); \
	ADDQ $128, SI; \
	ADDQ $128, DI; \
	ADDQ $128, DX; \
	SUBQ $8, BX; \
	JMP  wide; \
narrow: \
	TESTQ BX, BX; \
	JEQ  out; \
	MOVOU (SI), X0; \
	MOVOU (DX), X9; \
	PXOR X9, X0; \
	MOVOU (AX), X8; \
	PXOR X8, X0; \
	LEAQ 16(AX), R8; \
	MOVQ CX, R9; \
narrowround: \
	MOVOU (R8), X8; \
	round X8, X0; \
	ADDQ $16, R8; \
	DECQ R9; \
	JNE  narrowround; \
	MOVOU (R8), X8; \
	last X8, X0; \
	PXOR X9, X0; \
	MOVOU X0, (DI); \
	ADDQ $16, SI; \
	ADDQ $16, DI; \
	ADDQ $16, DX; \
	DECQ BX; \
	JMP  narrow; \
out: \
	RET

// func encBlocksXEX(rk *[240]byte, nr int, dst, src, tweaks *byte, n int)
TEXT ·encBlocksXEX(SB), NOSPLIT, $0-48
	MOVQ rk+0(FP), AX
	MOVQ nr+8(FP), CX
	MOVQ dst+16(FP), DI
	MOVQ src+24(FP), SI
	MOVQ tweaks+32(FP), DX
	MOVQ n+40(FP), BX
	XEX_BODY(AESENC, AESENCLAST)

// func decBlocksXEX(rk *[240]byte, nr int, dst, src, tweaks *byte, n int)
// rk is the equivalent-inverse schedule expandKey wrote to dec.
TEXT ·decBlocksXEX(SB), NOSPLIT, $0-48
	MOVQ rk+0(FP), AX
	MOVQ nr+8(FP), CX
	MOVQ dst+16(FP), DI
	MOVQ src+24(FP), SI
	MOVQ tweaks+32(FP), DX
	MOVQ n+40(FP), BX
	XEX_BODY(AESDEC, AESDECLAST)
