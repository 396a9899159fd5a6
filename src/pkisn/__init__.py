"""Log-based certificate and revocation transparency.

Certificates and revocations live in a public append-only log that doubles
as a timestamping service. CA revocations carry a cut-off instant, so a
compromised authority invalidates only what its key signed after the
break-in; everything issued earlier keeps validating. The log maintains a
chronological Merkle tree plus a hierarchical forest mirroring issuance,
serves presence, absence, and consistency proofs, and is watched by full or
lightweight monitors. Vendors can ship log-committed revocation bundles for
offline validation.
"""

from .certs import (
    CertChain,
    Certificate,
    RevocationKind,
    RevocationMessage,
    SignerRole,
    make_certificate,
    make_revocation,
    pre_validate,
    verify_revocation,
)
from .crypto import Digest, KeyPair, KeyRole, Signature, hash_leaf, hash_node, sign, verify
from .log import (
    ChainCommitment,
    LogConfig,
    LogServer,
    PendingRevocation,
    RevocationCommitment,
    SignedRoot,
)
from .monitor import (
    DeltaUpdate,
    FullMonitor,
    MinimizedTimeTree,
    MisbehaviorReport,
    build_delta,
)
from .revtree import (
    AbsenceProof,
    ChainPresenceProof,
    cert_id_hash,
    chain_id_hashes,
    verify_absence,
    verify_chain,
)
from .tcrl import Tcrl, build_tcrl, commit_tcrl, verify_tcrl
from .timetree import (
    ConsistencyProof,
    EntryKind,
    InclusionProof,
    TimeTree,
    TimeTreeEntry,
    verify_consistency,
    verify_inclusion,
)
from .validation import (
    LegitimacyPeriod,
    Reason,
    ValidationInput,
    ValidationResult,
    determine_lp_ca,
    determine_lp_leaf,
    is_valid,
    validate_with_tcrl,
    verify_proofs,
)

__version__ = "0.1.0"
