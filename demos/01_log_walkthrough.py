"""Walkthrough: issue a chain, register it, and validate against the log.

Run with: python3 demos/01_log_walkthrough.py
"""

from pkisn import (
    CertChain,
    KeyPair,
    KeyRole,
    LogConfig,
    LogServer,
    ValidationInput,
    chain_id_hashes,
    is_valid,
    make_certificate,
)

T0 = 1_600_000_000
YEAR = 365 * 86400

# Every CA owns two keypairs: the standard signing key used in production
# and a revocation key that stays offline until disaster strikes.
root_key = KeyPair.generate(KeyRole.STANDARD_CA)
root_rk = KeyPair.generate(KeyRole.REVOCATION)
inter_key = KeyPair.generate(KeyRole.STANDARD_CA)
inter_rk = KeyPair.generate(KeyRole.REVOCATION)
leaf_key = KeyPair.generate(KeyRole.STANDARD_LEAF)

root = make_certificate(
    serial=1, subject_name="Demo Root CA", subject_public_key=root_key.public_bytes,
    is_ca=True, not_before=T0, not_after=T0 + 30 * YEAR,
    issuer_key=root_key, revocation_public_key=root_rk.public_bytes,
)
inter = make_certificate(
    serial=2, subject_name="Demo Issuing CA", subject_public_key=inter_key.public_bytes,
    is_ca=True, not_before=T0, not_after=T0 + 15 * YEAR,
    issuer_key=root_key, revocation_public_key=inter_rk.public_bytes,
)
leaf = make_certificate(
    serial=3, subject_name="shop.example", subject_public_key=leaf_key.public_bytes,
    is_ca=False, not_before=T0, not_after=T0 + 2 * YEAR, issuer_key=inter_key,
)
chain = CertChain((root, inter, leaf))

# The log runs on a fixed schedule; submissions are promised a registration
# time equal to the next update.
vendor = KeyPair.generate(KeyRole.VENDOR)
log_key = KeyPair.generate(KeyRole.LOG)
log = LogServer(
    LogConfig(
        scheduling_period=3600,
        trust_roots=frozenset({root.cert_hash}),
        vendor_public_key=vendor.public_bytes,
    ),
    log_key,
    start_time=T0,
)

cc = log.submit_chain(chain)
print("chain commitment timestamps (leaf first):", cc.timestamps)

signed_root = log.run_update()
print("first update signed; tree size:", log.tree.size)

# Clients query by identity hash H(cert || registration time), walking the
# hierarchy root-CA first.
proof, signed_root, pending = log.get_proof(chain_id_hashes(chain, cc.timestamps))
print("proof levels:", len(proof.levels), "| pending revocations:", len(pending))

verdict = is_valid(
    ValidationInput(
        chain=chain, cc=cc, proof=proof, signed_root=signed_root,
        pending_revocations=pending, name="shop.example", now=T0 + 3700,
        trust_roots=log.config.trust_roots, log_pub=log_key.public_bytes,
        vendor_pub=vendor.public_bytes, max_root_age=7200,
    )
)
print("decision:", verdict.decision)
for v in verdict.per_cert:
    print(f"  {v.cert_hash.hex[:12]}…  period [{v.lp.begin}, {v.lp.end})  {v.lp.cause.value}")
