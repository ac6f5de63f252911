"""Random linear coding over GF(256): encode, erase, substitute, decode.

A generation of 5 source payloads is broadcast as random linear
combinations.  The receiver already holds two of the five packets, so each
coded packet collapses to an equation over the three unknowns; three useful
packets decode everything, byte for byte.
"""

import math

import numpy as np

from gencast import DecoderState, encode, random_coefficients, random_payloads
from gencast.galois import GF16, GF256
from gencast.rlnc import CodedPacket

print("GF(256) arithmetic with the 0x11D reduction polynomial:")
print(f"  0x57 + 0x83 = {GF256.add(0x57, 0x83):#x} (XOR)")
print(f"  0x02 * 0x80 = {GF256.mul(0x02, 0x80):#x}")
print(f"  inv(0x53)   = {GF256.inv(0x53):#x}, check: 0x53 * inv = "
      f"{GF256.mul(0x53, GF256.inv(0x53))}")

rng = np.random.default_rng(99)
payloads = dict(enumerate(random_payloads(5, 12, rng)))  # packet id -> payload
print("\nsource payloads (hex):")
for k, p in payloads.items():
    print(f"  packet {k}: {bytes(p).hex()}")

# receiver already got packets 1 and 4 in the systematic phase
known = {1: payloads[1], 4: payloads[4]}
state = DecoderState(generation_ids=range(5), wanted_ids=[0, 2, 3], known_payloads=known)
print("\nreceiver wants packets [0, 2, 3]; absorbing coded packets:")
absorbed = 0
while not state.decoded:
    pkt = encode(payloads, range(5), random_coefficients(5, rng, GF256), GF256)
    useful = state.absorb(pkt)
    absorbed += 1
    print(f"  packet {absorbed}: coeffs {bytes(pkt.coefficients).hex()} "
          f"useful={useful} rank={state.rank}/3")

solution = state.solve()
print("decoded payloads match the originals:",
      all((solution[k] == payloads[k]).all() for k in (0, 2, 3)))

# how often do exactly d random packets decode d unknowns?
print("\nfull-rank probability after exactly d coded packets (GF(16), 20000 trials):")
trials = 20000
for d in (1, 2, 3):
    rng = np.random.default_rng(d)
    draws = rng.integers(0, 16, size=(trials, d, d), dtype=np.uint8)
    hits = 0
    for i in range(trials):
        st = DecoderState(range(d), range(d), GF16)
        for j in range(d):  # a GF(16) decoder takes GF(16) packets only
            st.absorb(CodedPacket(range(d), draws[i, j], None, GF16))
        hits += st.decoded
    analytic = math.prod(1 - 16**-i for i in range(1, d + 1))
    print(f"  d={d}: measured {hits / trials:.4f}, analytic {analytic:.4f}")
