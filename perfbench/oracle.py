"""Independent checker for the benchmark's oracle log.

Recomputes what the vTPM stack returned without using any of its code:
SHA-1 PCR chains with Python's hashlib, quote composites from its own PCR
model, and RSA PKCS#1 v1.5 signature checks with Python's pow. A self-test
against published vectors runs first, so a change to the program's crypto
cannot make program and oracle agree by accident.

Log records (hex fields), one per line:
  E g pcr digest value     extend of `digest`; the TPM returned `value`
  M g pcr event            extend of SHA-1(event), output not observed
  R g pcr value            PCR_Read returned `value`
  F g pcr value            final PCR value taken from the instance
  K g n e                  public half of g's signing key
  Q g sel nonce composite signature n
                           quote over PCRs `sel` (comma list) with nonce
  S g digest signature     signature over `digest`
"""

import hashlib
import struct

ZERO = bytes(20)


def sha1(b):
    return hashlib.sha1(b).digest()


def pkcs1_sig_block(digest, k):
    """00 01 FF..FF 00 digest, as the program pads signatures."""
    return b"\x00\x01" + b"\xff" * (k - len(digest) - 3) + b"\x00" + digest


def rsa_verify(n, e, digest, sig):
    k = (n.bit_length() + 7) // 8
    if len(sig) != k or len(digest) + 11 > k:
        return False
    s = int.from_bytes(sig, "big")
    if s >= n:
        return False
    return pow(s, e, n).to_bytes(k, "big") == pkcs1_sig_block(digest, k)


def composite(pcrs, sel):
    """TPM_PCR_COMPOSITE digest: u16 bitmap size, 3-byte bitmap,
    u32 value size, the selected values in index order."""
    bitmap = bytearray(3)
    for i in sel:
        bitmap[i // 8] |= 1 << (i % 8)
    body = struct.pack(">H", 3) + bytes(bitmap) + struct.pack(">I", 20 * len(sel))
    body += b"".join(pcrs.get(i, ZERO) for i in sorted(sel))
    return sha1(body)


def quote_digest(comp, nonce):
    return sha1(b"\x01\x01\x00\x00" + b"QUOT" + comp + nonce)


def flip(b):
    return bytes([b[0] ^ 1]) + b[1:]


def self_test():
    """Published vectors: FIPS 180 SHA-1 examples, a textbook RSA key, and
    a signature round trip on a key built from two Mersenne primes."""
    vectors = {
        b"abc": "a9993e364706816aba3e25717850c26c9cd0d89d",
        b"": "da39a3ee5e6b4b0d3255bfef95601890afd80709",
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq":
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
    }
    for msg, want in vectors.items():
        if sha1(msg).hex() != want:
            return "SHA-1 self-test failed on %r" % msg
    if pow(65, 17, 3233) != 2790 or pow(2790, 2753, 3233) != 65:
        return "RSA textbook self-test failed"
    p, q, e = 2**127 - 1, 2**521 - 1, 65537
    n = p * q
    d = pow(e, -1, (p - 1) * (q - 1))
    digest = sha1(b"abc")
    k = (n.bit_length() + 7) // 8
    sig = pow(int.from_bytes(pkcs1_sig_block(digest, k), "big"), d, n).to_bytes(k, "big")
    if not rsa_verify(n, e, digest, sig) or rsa_verify(n, e, flip(digest), sig):
        return "RSA signature self-test failed"
    return None


def check(path):
    """Returns (records checked, operation mismatches, final-state
    mismatches, problems)."""
    pcrs = {}  # guest -> {pcr: value}
    keys = {}  # guest -> (n, e)
    checked = mismatches = final_bad = 0
    problems = []

    def bad(kind, line):
        if len(problems) < 10:
            problems.append("%s: %s" % (kind, line.strip()[:160]))

    with open(path) as f:
        for line in f:
            rec = line.split()
            if not rec:
                continue
            tag, g = rec[0], int(rec[1])
            bank = pcrs.setdefault(g, {})
            checked += 1
            if tag == "E":
                pcr, digest, value = int(rec[2]), bytes.fromhex(rec[3]), bytes.fromhex(rec[4])
                bank[pcr] = sha1(bank.get(pcr, ZERO) + digest)
                if bank[pcr] != value:
                    mismatches += 1
                    bad("extend", line)
            elif tag == "M":
                pcr = int(rec[2])
                bank[pcr] = sha1(bank.get(pcr, ZERO) + sha1(bytes.fromhex(rec[3])))
            elif tag == "R":
                if bank.get(int(rec[2]), ZERO) != bytes.fromhex(rec[3]):
                    mismatches += 1
                    bad("pcr_read", line)
            elif tag == "F":
                if bank.get(int(rec[2]), ZERO) != bytes.fromhex(rec[3]):
                    final_bad += 1
                    bad("final pcr", line)
            elif tag == "K":
                keys[g] = (int(rec[2], 16), int(rec[3], 16))
            elif tag == "Q":
                sel = [int(i) for i in rec[2].split(",")]
                nonce, comp, sig = (bytes.fromhex(x) for x in rec[3:6])
                n, e = keys[g]
                ok = (
                    int(rec[6], 16) == n
                    and comp == composite(bank, sel)
                    and rsa_verify(n, e, quote_digest(comp, nonce), sig)
                    and not rsa_verify(n, e, quote_digest(comp, flip(nonce)), sig)
                )
                if not ok:
                    mismatches += 1
                    bad("quote", line)
            elif tag == "S":
                digest, sig = bytes.fromhex(rec[2]), bytes.fromhex(rec[3])
                n, e = keys[g]
                if not rsa_verify(n, e, digest, sig) or rsa_verify(n, e, flip(digest), sig):
                    mismatches += 1
                    bad("sign", line)
            else:
                final_bad += 1
                bad("unknown record", line)
    return checked, mismatches, final_bad, problems
