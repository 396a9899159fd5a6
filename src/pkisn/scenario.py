"""Deterministic scenario replay on a virtual clock.

A script is an ordered list of events applied against an in-process log:
key generation, issuance, submissions, revocations, updates, validations,
and expectations over the last verdict. Advancing the clock automatically
fires every scheduled update that falls in the skipped interval, so the log
always keeps its promised registration times.

Bundled scenarios cover the system's headline behaviors: recovery from a
root-CA compromise without collateral damage, the mass-issuance cut-off
study, and a revocation burst flowing through vendor bundles.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .certs import (
    CertChain,
    RevocationKind,
    SignerRole,
    make_certificate,
    make_revocation,
)
from .crypto import KeyPair, KeyRole
from .log import LogConfig, LogError, LogServer
from .revtree import chain_id_hashes
from .validation import ValidationInput, is_valid

DEFAULT_START = 1_600_000_000

ROLE_MAP = {
    "ca": KeyRole.STANDARD_CA,
    "leaf": KeyRole.STANDARD_LEAF,
    "revocation": KeyRole.REVOCATION,
}

KIND_MAP = {"leaf": RevocationKind.LEAF_REVOKE, "ca": RevocationKind.CA_REVOKE_FROM}
SIGNER_MAP = {
    "own": SignerRole.OWN_KEY,
    "parent": SignerRole.PARENT_CA,
    "rk": SignerRole.REVOCATION_KEY,
    "vendor": SignerRole.VENDOR,
}


@dataclass
class Expectation:
    index: int
    ok: bool
    detail: str


@dataclass
class ScenarioReport:
    events: int
    expectations: list[Expectation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.expectations)

    def to_json(self) -> dict:
        return {
            "events": self.events,
            "passed": self.passed,
            "expectations": [
                {"index": e.index, "ok": e.ok, "detail": e.detail} for e in self.expectations
            ],
            "notes": self.notes,
        }


class ScenarioError(Exception):
    def __init__(self, index: int, message: str):
        super().__init__(f"event {index}: {message}")
        self.index = index


class ScenarioRunner:
    def __init__(self, script: dict):
        self.script = script
        self.period = script.get("scheduling_period", 3600)
        self.clock = script.get("start_time", DEFAULT_START)
        self.keys: dict[str, KeyPair] = {}
        self.certs: dict[str, object] = {}
        self.ccs: dict[str, object] = {}
        self.commitments: dict[str, object] = {}
        self.compromised: set[str] = set()
        self.vendor = KeyPair.generate(KeyRole.VENDOR)
        self.log_key = KeyPair.generate(KeyRole.LOG)
        self.trust_roots: set = set()
        config = LogConfig(
            scheduling_period=self.period,
            trust_roots=frozenset(),
            vendor_public_key=self.vendor.public_bytes,
        )
        self.log = LogServer(config, self.log_key, start_time=self.clock)
        self.last_verdict = None
        self.serial = 1

    # -- event handlers ------------------------------------------------------

    def run(self) -> ScenarioReport:
        report = ScenarioReport(events=len(self.script["events"]))
        for i, event in enumerate(self.script["events"]):
            try:
                self._apply(event, report, i)
            except ScenarioError:
                raise
            except Exception as e:
                raise ScenarioError(i, f"{type(e).__name__}: {e}") from e
        return report

    def _apply(self, event: dict, report: ScenarioReport, index: int) -> None:
        op = event["op"]
        if op == "advance_time":
            self.clock += int(event["seconds"])
            while self.log.next_update_time() <= self.clock:
                self.log.run_update()
        elif op == "keygen":
            self.keys[event["name"]] = KeyPair.generate(ROLE_MAP[event["role"]])
        elif op == "issue":
            self._issue(event)
        elif op == "submit_chain":
            chain = self._chain(event["chain"])
            cc = self.log.submit_chain(chain)
            self.ccs[event.get("as", event["chain"][-1])] = cc
        elif op == "revoke":
            self._revoke(event)
        elif op == "run_update":
            self.clock = max(self.clock, self.log.next_update_time())
            self.log.run_update()
        elif op == "validate":
            self._validate(event)
        elif op == "compromise":
            self.compromised.add(event["key"])
            report.notes.append(f"event {index}: key {event['key']} treated as adversary-held")
        elif op == "expect":
            self._expect(event, report, index)
        else:
            raise ScenarioError(index, f"unknown op {op!r}")

    def _issue(self, event: dict) -> None:
        key = self.keys[event["key"]]
        is_ca = bool(event.get("ca", False))
        issuer_key = self.keys[event["issuer_key"]] if "issuer_key" in event else key
        rk = self.keys[event["rk"]] if "rk" in event else None
        not_before = self.clock + int(event.get("not_before_offset", -1))
        lifetime = int(event.get("lifetime", 10 * 365 * 86400))
        cert = make_certificate(
            serial=int(event.get("serial", self.serial)),
            subject_name=event["subject"],
            subject_public_key=key.public_bytes,
            is_ca=is_ca,
            not_before=not_before,
            not_after=not_before + lifetime,
            issuer_key=issuer_key,
            revocation_public_key=rk.public_bytes if rk else None,
        )
        self.serial += 1
        self.certs[event["name"]] = cert
        if is_ca and "issuer_key" not in event:
            self.trust_roots.add(cert.cert_hash)
            self.log.config.trust_roots = frozenset(self.trust_roots)

    def _revoke(self, event: dict) -> None:
        target = self.certs[event["target"]]
        chain = self._chain(event["chain"])
        rev_ts = self._resolve_time(event.get("rev_timestamp"))
        rev = make_revocation(
            kind=KIND_MAP[event["kind"]],
            target=target,
            signer_key=self._signer_key(event),
            signer_role=SIGNER_MAP[event["role"]],
            rev_timestamp=rev_ts,
            signer_depth=int(event.get("depth", 0)),
        )
        expect_error = event.get("expect_error")
        try:
            commitment = self.log.submit_revocation(chain, rev)
        except LogError as e:
            if expect_error and type(e).__name__ == expect_error:
                return
            raise
        if expect_error:
            raise RuntimeError(f"expected {expect_error}, submission succeeded")
        if "as" in event:
            self.commitments[event["as"]] = commitment

    def _signer_key(self, event: dict) -> KeyPair:
        if event["role"] == "vendor":
            return self.vendor
        return self.keys[event["signer_key"]]

    def _resolve_time(self, stamp) -> int | None:
        """Timestamps may be absolute, clock-relative, taken from a stored
        commitment (the registration instant the log promised), or the
        registration time of a named certificate."""
        if stamp is None:
            return None
        if isinstance(stamp, int):
            return stamp
        if isinstance(stamp, dict):
            if "offset" in stamp:
                return self.clock + int(stamp["offset"])
            if "commitment_of" in stamp:
                return self.commitments[stamp["commitment_of"]].timestamp
            if "registration_of" in stamp:
                cert = self.certs[stamp["registration_of"]]
                return self.log.registry[cert.cert_hash].reg_ts
        raise ValueError(f"bad timestamp {stamp!r}")

    def _chain(self, names: list[str]) -> CertChain:
        return CertChain(tuple(self.certs[n] for n in names))

    def _validate(self, event: dict) -> None:
        chain = self._chain(event["chain"])
        cc = self.ccs.get(event.get("cc", event["chain"][-1]))
        if cc is None:
            cc = self.log.submit_chain(chain)
        proof, signed_root, pending = self.log.get_proof(chain_id_hashes(chain, cc.timestamps))
        now = self.clock + int(event.get("now_offset", 1))
        self.last_verdict = is_valid(
            ValidationInput(
                chain=chain,
                cc=cc,
                proof=proof,
                signed_root=signed_root,
                pending_revocations=pending,
                name=event.get("name", chain.leaf.subject_name),
                now=now,
                trust_roots=frozenset(self.trust_roots),
                log_pub=self.log_key.public_bytes,
                vendor_pub=self.vendor.public_bytes,
                max_root_age=int(event.get("max_root_age", 2 * self.period)),
            )
        )

    def _expect(self, event: dict, report: ScenarioReport, index: int) -> None:
        verdict = self.last_verdict
        ok = verdict is not None and verdict.decision == event["decision"]
        if ok and "reason" in event:
            ok = verdict.reason is not None and verdict.reason.value == event["reason"]
        detail = event.get("note", "")
        got = "none" if verdict is None else f"{verdict.decision}/{verdict.reason and verdict.reason.value}"
        report.expectations.append(
            Expectation(index=index, ok=ok, detail=f"{detail} (got {got})")
        )


def run_scenario(script: dict) -> ScenarioReport:
    return ScenarioRunner(script).run()


def load_script(path: str | Path) -> dict:
    return json.loads(Path(path).read_text())


# -- bundled scenarios ----------------------------------------------------------

DAY = 86400


def compromised_root_recovery(intermediate_registered_late: bool = False) -> dict:
    """A root CA's key is stolen and used to maliciously revoke the honest
    intermediate; the root's offline revocation key, cut at the attack
    instant, restores every certificate issued before the break-in. The
    variant registers the intermediate after the attack, which must fail."""
    period = 3600
    events = [
        {"op": "keygen", "name": "root", "role": "ca"},
        {"op": "keygen", "name": "root_rk", "role": "revocation"},
        {"op": "keygen", "name": "inter", "role": "ca"},
        {"op": "keygen", "name": "inter_rk", "role": "revocation"},
        {"op": "keygen", "name": "leaf", "role": "leaf"},
        {"op": "issue", "name": "C_root", "subject": "Root CA", "key": "root", "ca": True, "rk": "root_rk"},
        {"op": "issue", "name": "C_inter", "subject": "Intermediate CA", "key": "inter",
         "issuer_key": "root", "ca": True, "rk": "inter_rk"},
        {"op": "issue", "name": "C_leaf", "subject": "www.example.com", "key": "leaf",
         "issuer_key": "inter"},
    ]
    if intermediate_registered_late:
        # Root goes in early; the intermediate and leaf only after the attack.
        events += [
            {"op": "keygen", "name": "seed_leaf", "role": "leaf"},
            {"op": "issue", "name": "C_seed", "subject": "seed.example.com", "key": "seed_leaf",
             "issuer_key": "root"},
            {"op": "submit_chain", "chain": ["C_root", "C_seed"]},
            {"op": "run_update"},
            {"op": "advance_time", "seconds": 10 * period},
            {"op": "compromise", "key": "root"},
            {"op": "revoke", "target": "C_seed", "chain": ["C_root", "C_seed"], "kind": "leaf",
             "role": "parent", "signer_key": "root", "depth": 0, "as": "malicious"},
            {"op": "run_update"},
            {"op": "submit_chain", "chain": ["C_root", "C_inter", "C_leaf"]},
            {"op": "run_update"},
            {"op": "revoke", "target": "C_root", "chain": ["C_root"], "kind": "ca",
             "role": "rk", "signer_key": "root_rk",
             "rev_timestamp": {"commitment_of": "malicious"}},
            {"op": "run_update"},
            {"op": "validate", "chain": ["C_root", "C_inter", "C_leaf"]},
            {"op": "expect", "decision": "FAIL", "reason": "RegOutsideParentLP",
             "note": "intermediate registered after the attack instant"},
        ]
        return {"scheduling_period": period, "events": events}
    events += [
        {"op": "submit_chain", "chain": ["C_root", "C_inter", "C_leaf"]},
        {"op": "run_update"},
        {"op": "validate", "chain": ["C_root", "C_inter", "C_leaf"]},
        {"op": "expect", "decision": "SUCCESS", "note": "honest chain before the attack"},
        {"op": "advance_time", "seconds": 10 * period},
        {"op": "compromise", "key": "root"},
        # Malicious retroactive revocation of the intermediate with the
        # stolen standard key, cut at its registration instant for maximal
        # collateral damage.
        {"op": "revoke", "target": "C_inter", "chain": ["C_root", "C_inter"], "kind": "ca",
         "role": "parent", "signer_key": "root", "depth": 0,
         "rev_timestamp": {"registration_of": "C_inter"}, "as": "malicious"},
        {"op": "run_update"},
        {"op": "validate", "chain": ["C_root", "C_inter", "C_leaf"]},
        {"op": "expect", "decision": "FAIL", "note": "attack temporarily effective"},
        # Detection: the root cuts itself off at the instant the malicious
        # revocation entered the log.
        {"op": "revoke", "target": "C_root", "chain": ["C_root"], "kind": "ca",
         "role": "rk", "signer_key": "root_rk",
         "rev_timestamp": {"commitment_of": "malicious"}},
        {"op": "run_update"},
        {"op": "validate", "chain": ["C_root", "C_inter", "C_leaf"]},
        {"op": "expect", "decision": "SUCCESS",
         "note": "leaf valid although its parent CA certificate was revoked"},
    ]
    return {"scheduling_period": period, "events": events}


def too_big_to_be_revoked(
    n_leaves: int = 1000, years: int = 8, detect_days: int = 7
) -> tuple[dict, int]:
    """A busy intermediate signs leaves uniformly for years; its key is
    compromised near the end and revoked from the compromise instant.
    Returns (script, expected_fail_count): exactly the leaves registered at
    or after the compromise must fail."""
    period = DAY
    total_days = years * 365
    events = [
        {"op": "keygen", "name": "root", "role": "ca"},
        {"op": "keygen", "name": "root_rk", "role": "revocation"},
        {"op": "keygen", "name": "busy", "role": "ca"},
        {"op": "keygen", "name": "busy_rk", "role": "revocation"},
        {"op": "keygen", "name": "leafkey", "role": "leaf"},
        {"op": "issue", "name": "C_root", "subject": "Root CA", "key": "root", "ca": True,
         "rk": "root_rk", "lifetime": 40 * 365 * DAY},
        {"op": "issue", "name": "C_busy", "subject": "Busy CA", "key": "busy",
         "issuer_key": "root", "ca": True, "rk": "busy_rk", "lifetime": 40 * 365 * DAY},
    ]
    day = 0
    registration_day = []
    for i in range(n_leaves):
        issue_day = (i * total_days) // n_leaves
        if issue_day > day:
            events.append({"op": "advance_time", "seconds": (issue_day - day) * DAY})
            day = issue_day
        events.append(
            {"op": "issue", "name": f"L{i}", "subject": f"site{i}.example", "key": "leafkey",
             "issuer_key": "busy", "lifetime": 30 * 365 * DAY}
        )
        events.append({"op": "submit_chain", "chain": ["C_root", "C_busy", f"L{i}"]})
        registration_day.append(day + 1)  # merged at the next daily update
    compromise_day = total_days - detect_days
    events.append({"op": "advance_time", "seconds": (total_days - day) * DAY})
    events.append({"op": "compromise", "key": "busy"})
    start = DEFAULT_START
    compromise_time = start + compromise_day * DAY
    events.append(
        {"op": "revoke", "target": "C_busy", "chain": ["C_root", "C_busy"], "kind": "ca",
         "role": "rk", "signer_key": "busy_rk", "rev_timestamp": compromise_time}
    )
    events.append({"op": "run_update"})
    expected_failures = 0
    for i in range(n_leaves):
        reg_time = start + registration_day[i] * DAY
        fails = reg_time >= compromise_time
        expected_failures += fails
        events.append({"op": "validate", "chain": ["C_root", "C_busy", f"L{i}"]})
        events.append(
            {"op": "expect", "decision": "FAIL" if fails else "SUCCESS",
             "reason": "RegOutsideParentLP" if fails else None,
             "note": f"leaf {i} registered day {registration_day[i]}, compromise day {compromise_day}"}
        )
    # Drop the reason key where None to keep the script JSON-clean.
    for e in events:
        if e.get("op") == "expect" and e.get("reason") is None:
            e.pop("reason", None)
    return {"scheduling_period": period, "start_time": start, "events": events}, expected_failures


def revocation_spike(n_sites: int = 30, n_revoked: int = 10) -> dict:
    """A burst of revocations on one day; short-lived revoked certificates
    age out of the vendor bundle afterwards. Kept as a plain script so the
    runner exercises it; bundle sizes are asserted by the callers that build
    the bundles alongside."""
    period = DAY
    events = [
        {"op": "keygen", "name": "root", "role": "ca"},
        {"op": "keygen", "name": "root_rk", "role": "revocation"},
        {"op": "keygen", "name": "ca", "role": "ca"},
        {"op": "keygen", "name": "ca_rk", "role": "revocation"},
        {"op": "keygen", "name": "leafkey", "role": "leaf"},
        {"op": "issue", "name": "C_root", "subject": "Root CA", "key": "root", "ca": True, "rk": "root_rk"},
        {"op": "issue", "name": "C_ca", "subject": "Issuing CA", "key": "ca",
         "issuer_key": "root", "ca": True, "rk": "ca_rk"},
    ]
    for i in range(n_sites):
        short = i % 2 == 0
        events.append(
            {"op": "issue", "name": f"S{i}", "subject": f"spike{i}.example", "key": "leafkey",
             "issuer_key": "ca", "lifetime": (10 * DAY if short else 365 * DAY)}
        )
        events.append({"op": "submit_chain", "chain": ["C_root", "C_ca", f"S{i}"]})
    events.append({"op": "run_update"})
    for i in range(n_revoked):
        events.append(
            {"op": "revoke", "target": f"S{i}", "chain": ["C_root", "C_ca", f"S{i}"],
             "kind": "leaf", "role": "parent", "signer_key": "ca", "depth": 1}
        )
    events.append({"op": "run_update"})
    for i in range(n_sites):
        events.append({"op": "validate", "chain": ["C_root", "C_ca", f"S{i}"]})
        events.append(
            {"op": "expect", "decision": "FAIL" if i < n_revoked else "SUCCESS",
             "note": f"site {i} {'revoked in the burst' if i < n_revoked else 'untouched'}"}
        )
    return {"scheduling_period": period, "events": events}


BUNDLED = {
    "compromised_root_recovery": lambda: compromised_root_recovery(False),
    "compromised_root_recovery_late": lambda: compromised_root_recovery(True),
    "too_big_to_be_revoked": lambda: too_big_to_be_revoked()[0],
    "revocation_spike": revocation_spike,
}
