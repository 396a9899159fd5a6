"""Stateful model test: the log, both monitors and crash recovery together.

Hypothesis drives random sequences of submissions, revocations by every
signer role, updates, bundle commits, crashes with journal recovery, full
syncs and lightweight deltas, and checks after every step that all replicas
agree and that every signed promise the log issued is kept.
"""

from __future__ import annotations

import shutil
import tempfile
from itertools import accumulate
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from pkisn.certs import CertChain, RevocationKind, SignerRole, make_revocation
from pkisn.crypto import KeyPair, KeyRole
from pkisn.journal import Journal
from pkisn.log import DuplicateRkRevocation, LogConfig, LogServer
from pkisn.monitor import FullMonitor, MinimizedTimeTree, build_delta
from pkisn.tcrl import build_tcrl, commit_tcrl

from helpers import T0, ChainFixture, make_ca, make_leaf

PERIOD = 600

# Key material is fixed for the module so examples differ only in the steps.
FX = ChainFixture()
OTHER_KEY = KeyPair.generate(KeyRole.STANDARD_CA)
OTHER_RK = KeyPair.generate(KeyRole.REVOCATION)
OTHER_INTER = make_ca("Second Intermediate CA", OTHER_KEY, OTHER_RK, issuer_key=FX.root_key, serial=50)
INTERS = [(FX.inter, FX.inter_key, FX.inter_rk), (OTHER_INTER, OTHER_KEY, OTHER_RK)]
LEAF_KEYS = [KeyPair.generate(KeyRole.STANDARD_LEAF) for _ in range(3)]
VENDOR = KeyPair.generate(KeyRole.VENDOR)
LOG_KEY = KeyPair.generate(KeyRole.LOG)
CONFIG = LogConfig(
    scheduling_period=PERIOD,
    trust_roots=frozenset({FX.root.cert_hash}),
    vendor_public_key=VENDOR.public_bytes,
)


class LogAndMonitors(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="pkisn-sm-"))
        self.journal_path = self.dir / "journal.bin"
        self.log = LogServer(CONFIG, LOG_KEY, start_time=T0, journal=Journal(self.journal_path, fsync=False))
        self.full = FullMonitor(CONFIG.trust_roots, LOG_KEY.public_bytes, VENDOR.public_bytes)
        self.light = MinimizedTimeTree(LOG_KEY.public_bytes)
        self.leaves: list[tuple[CertChain, KeyPair, int]] = []  # chain, leaf key, intermediate index
        self.ccs = []  # (commitment, chain)
        self.rcs = []
        self.reports = []
        self.serial = 1000

    def teardown(self):
        self.log._journal.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- rules ---------------------------------------------------------------

    @rule(inter=st.integers(0, 1), key=st.integers(0, len(LEAF_KEYS) - 1))
    def submit_chain(self, inter, key):
        self.serial += 1
        ca, ca_key, _ = INTERS[inter]
        leaf = make_leaf(f"h{self.serial}.example.com", LEAF_KEYS[key], ca_key, serial=self.serial)
        chain = CertChain((FX.root, ca, leaf))
        self.ccs.append((self.log.submit_chain(chain), chain))
        self.leaves.append((chain, LEAF_KEYS[key], inter))

    @precondition(lambda self: self.leaves)
    @rule(pick=st.integers(0, 10**6), role=st.sampled_from([SignerRole.OWN_KEY, SignerRole.PARENT_CA, SignerRole.VENDOR]))
    def revoke_leaf(self, pick, role):
        chain, leaf_key, inter = self.leaves[pick % len(self.leaves)]
        signer = {SignerRole.OWN_KEY: leaf_key, SignerRole.PARENT_CA: INTERS[inter][1], SignerRole.VENDOR: VENDOR}[role]
        depth = 1 if role == SignerRole.PARENT_CA else 0
        rev = make_revocation(RevocationKind.LEAF_REVOKE, chain.leaf, signer, role, signer_depth=depth)
        self.rcs.append(self.log.submit_revocation(chain, rev))

    @precondition(lambda self: self.leaves)
    @rule(pick=st.integers(0, 10**6), role=st.sampled_from([SignerRole.REVOCATION_KEY, SignerRole.PARENT_CA, SignerRole.VENDOR]))
    def revoke_ca(self, pick, role):
        chain, _, inter = self.leaves[pick % len(self.leaves)]
        ca, _, ca_rk = INTERS[inter]
        signer = {SignerRole.REVOCATION_KEY: ca_rk, SignerRole.PARENT_CA: FX.root_key, SignerRole.VENDOR: VENDOR}[role]
        cut = self.log.last_update_time - PERIOD // 2
        rev = make_revocation(RevocationKind.CA_REVOKE_FROM, ca, signer, role, rev_timestamp=cut)
        try:
            self.rcs.append(self.log.submit_revocation(CertChain(chain.certs[:2]), rev))
        except DuplicateRkRevocation:
            pass  # the revocation key is single-use per certificate

    @rule()
    def update(self):
        self.log.run_update()

    @rule()
    def commit_bundle(self):
        commit_tcrl(self.log, build_tcrl(self.log, VENDOR, now=self.log.last_update_time))

    @rule()
    def crash_and_recover(self):
        self.log._journal.close()
        self.log = LogServer.recover(CONFIG, LOG_KEY, start_time=T0, journal_path=self.journal_path)

    @precondition(lambda self: self.journal_path.stat().st_size)
    @rule(back=st.integers(0, 10**6))
    def torn_crash_recovers_the_intact_prefix(self, back):
        """Cut a copy of the journal at a byte inside its last frames: it
        recovers to what the intact frames before the cut recover to, and
        signs only roots the live log signed."""
        data = self.journal_path.read_bytes()
        ends = [0] + list(accumulate(9 + len(r.payload) for r in Journal.replay(self.journal_path)))
        lo = ends[max(0, len(ends) - 4)]
        cut = lo + back % (len(data) - lo)
        torn, prefix = self.dir / "torn.bin", self.dir / "prefix.bin"
        torn.write_bytes(data[:cut])
        prefix.write_bytes(data[: max(e for e in ends if e <= cut)])
        states = []
        for path in (torn, prefix):
            log = LogServer.recover(CONFIG, LOG_KEY, start_time=T0, journal_path=path)
            log._journal.close()
            path.unlink()
            states.append((log.tree.size, log.tree.root(), log.forest.top_root(),
                           [u.signed_root for u in log.updates], log.pending_certs,
                           [r.canonical_bytes for r in log.pending_revs], log.pending_tcrls))
        assert states[0] == states[1]
        assert states[0][3] == [u.signed_root for u in self.log.updates[: len(states[0][3])]]

    @precondition(lambda self: self.log.updates)
    @rule()
    def sync_full_monitor(self):
        result = self.full.sync_from(self.log)
        self.reports.extend(result.reports)
        assert result.ok

    @precondition(lambda self: self.log.updates)
    @rule()
    def apply_light_delta(self):
        self.light.apply_delta(build_delta(self.log, self.light.size, self.log.last_update_time))

    # -- invariants ----------------------------------------------------------

    @invariant()
    def tree_roots_agree(self):
        if self.full.tree.size:
            assert self.full.tree.root() == self.log.tree.root(self.full.tree.size)
        if self.light.size:
            assert self.light.root() == self.log.tree.root(self.light.size)

    @invariant()
    def forest_roots_agree(self):
        if self.full.tree.size:
            record = next(u for u in self.log.updates if u.tree_size == self.full.tree.size)
            assert self.full.forest.top_root() == record.forest_root

    @invariant()
    def no_reports(self):
        assert self.reports == []

    @invariant()
    def commitments_kept(self):
        for cc, chain in self.ccs:
            assert self.full.check_chain_commitment(cc, chain) is None
        for rc in self.rcs:
            assert self.full.check_revocation_commitment(rc) is None


LogAndMonitors.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None, database=None
)
test_log_and_monitors = LogAndMonitors.TestCase
