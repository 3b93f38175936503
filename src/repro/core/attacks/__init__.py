"""The paper's attacks: fake PDC result injection and PDC leakage."""

from repro.core.attacks.base import AttackReport, install_constrained_contracts, seed_private_value
from repro.core.attacks.collusion import (
    CollusionReport,
    analyze_collusion,
    minimum_satisfying_orgs,
)
from repro.core.attacks.fake_read import run_fake_read_injection
from repro.core.attacks.ops import (
    ColludingPrivateAssetContract,
    favourable_endorsers,
    nonsatisfying_endorsers,
)
from repro.core.attacks.fake_write import (
    run_fake_delete_injection,
    run_fake_read_write_injection,
    run_fake_write_injection,
)
from repro.core.attacks.leakage import (
    LeakedRecord,
    harvest_payloads,
    run_pdc_read_leakage,
    run_pdc_write_leakage,
)
from repro.core.attacks.scenarios import (
    AttackMatrix,
    PAPER_INJECTION_MATRIX,
    PAPER_LEAKAGE_MATRIX,
    run_attack_matrix,
    run_injection_cell,
    run_leakage_cell,
)

__all__ = [
    "AttackReport",
    "CollusionReport",
    "analyze_collusion",
    "minimum_satisfying_orgs",
    "install_constrained_contracts",
    "seed_private_value",
    "ColludingPrivateAssetContract",
    "favourable_endorsers",
    "nonsatisfying_endorsers",
    "run_fake_read_injection",
    "run_fake_delete_injection",
    "run_fake_read_write_injection",
    "run_fake_write_injection",
    "LeakedRecord",
    "harvest_payloads",
    "run_pdc_read_leakage",
    "run_pdc_write_leakage",
    "AttackMatrix",
    "PAPER_INJECTION_MATRIX",
    "PAPER_LEAKAGE_MATRIX",
    "run_attack_matrix",
    "run_injection_cell",
    "run_leakage_cell",
]
