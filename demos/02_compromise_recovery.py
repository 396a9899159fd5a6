"""Walkthrough: a root CA key is stolen, abused, and surgically revoked.

The stolen standard key retroactively revokes the honest intermediate,
taking the site down. The root's offline revocation key then cuts the root
off from the instant the abuse entered the log: the malicious revocation
loses its force and the site comes back, with no reissuance.

Run with: python3 demos/02_compromise_recovery.py
"""

from pkisn import (
    CertChain,
    KeyPair,
    KeyRole,
    LogConfig,
    LogServer,
    RevocationKind,
    SignerRole,
    ValidationInput,
    chain_id_hashes,
    is_valid,
    make_certificate,
    make_revocation,
)

T0 = 1_600_000_000
HOUR = 3600
YEAR = 365 * 86400

root_key = KeyPair.generate(KeyRole.STANDARD_CA)
root_rk = KeyPair.generate(KeyRole.REVOCATION)
inter_key = KeyPair.generate(KeyRole.STANDARD_CA)
inter_rk = KeyPair.generate(KeyRole.REVOCATION)
leaf_key = KeyPair.generate(KeyRole.STANDARD_LEAF)

root = make_certificate(1, "Root CA", root_key.public_bytes, True, T0, T0 + 30 * YEAR,
                        root_key, root_rk.public_bytes)
inter = make_certificate(2, "Intermediate CA", inter_key.public_bytes, True, T0, T0 + 15 * YEAR,
                         root_key, inter_rk.public_bytes)
leaf = make_certificate(3, "bank.example", leaf_key.public_bytes, False, T0, T0 + 2 * YEAR,
                        inter_key)
chain = CertChain((root, inter, leaf))

vendor = KeyPair.generate(KeyRole.VENDOR)
log_key = KeyPair.generate(KeyRole.LOG)
log = LogServer(
    LogConfig(scheduling_period=HOUR, trust_roots=frozenset({root.cert_hash}),
              vendor_public_key=vendor.public_bytes),
    log_key, start_time=T0,
)


def validate(note):
    cc = log.submit_chain(chain)
    proof, sr, pending = log.get_proof(chain_id_hashes(chain, cc.timestamps))
    verdict = is_valid(ValidationInput(
        chain=chain, cc=cc, proof=proof, signed_root=sr, pending_revocations=pending,
        name="bank.example", now=log.last_update_time + 60,
        trust_roots=log.config.trust_roots, log_pub=log_key.public_bytes,
        vendor_pub=vendor.public_bytes, max_root_age=2 * HOUR,
    ))
    reason = f" ({verdict.reason.value})" if verdict.reason else ""
    print(f"{note}: {verdict.decision}{reason}")
    return verdict


log.submit_chain(chain)
log.run_update()
validate("day 0, honest world")

# Hours pass; the adversary, holding the root's standard key, revokes the
# intermediate from its registration instant - maximal collateral damage.
for _ in range(6):
    log.run_update()
t_reg = log.registry[inter.cert_hash].reg_ts
malicious = make_revocation(
    RevocationKind.CA_REVOKE_FROM, inter, root_key, SignerRole.PARENT_CA,
    rev_timestamp=t_reg, signer_depth=0,
)
commitment = log.submit_revocation(CertChain((root, inter)), malicious)
t_attack = commitment.timestamp  # the instant the abuse becomes visible
log.run_update()
validate("after the malicious revocation merges")

# Detection and recovery: the root reads the log, pins the attack instant,
# and burns its single-use offline key to cut itself off from that moment.
rk_rev = make_revocation(
    RevocationKind.CA_REVOKE_FROM, root, root_rk, SignerRole.REVOCATION_KEY,
    rev_timestamp=t_attack,
)
log.submit_revocation(CertChain((root,)), rk_rev)
log.run_update()
verdict = validate("after the offline-key cut-off")

inter_lp = verdict.per_cert[1].lp
print(f"intermediate period restored to [{inter_lp.begin}, {inter_lp.end}), "
      f"cause {inter_lp.cause.value}")
print("the malicious revocation is still in the log (transparency), "
      "registered outside the root's own period, so it has no force")
