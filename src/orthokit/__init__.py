"""Finite-model toolkit for ortholattices, orthosemilattices, and their implication reducts."""

from .catalog_io import (
    CatalogEntry,
    catalog,
    catalog_names,
    entry,
    parse_ioa,
    parse_olat,
    semilattice,
    serialize_ioa,
    serialize_olat,
)
from .congruence import (
    KernelSet,
    Partition,
    all_congruences_bruteforce,
    check_d1,
    check_d2,
    congruence_lattice,
    is_congruence,
    kernel,
    principal_congruence,
    theta_from_kernel,
    verify_kernel_injectivity,
)
from .core import (
    IntervalWitness,
    OrtholatticeTable,
    OrthosemilatticeTable,
    PosetTable,
    StrongnessResult,
    as_orthosemilattice,
    check_overlap_consistency,
    find_interval_orthocomplementation,
    interval,
    is_modular,
    is_orthomodular,
    is_strong,
    lattice_from_order,
    order_filter_to_orthosemilattice,
    relative_complement,
    restrict_to_filter,
    validate_interval_witness,
    validate_ortholattice,
    validate_orthosemilattice,
    validate_poset,
)
from .implication import (
    ImplicationTable,
    check_ioa_identities,
    derive_bullet,
    induced_join,
    induced_order,
    interval_meet,
    reconstruct_orthosemilattice,
)
from .report import Check, CheckReport, Verdict
from .terms import (
    Bullet,
    Const1,
    Term,
    XVar,
    YVar,
    builtin_terms,
    check_lemma_chain,
    closed_subsets,
    closed_under_term,
    eval_term,
    ideal_closure,
    is_ideal_by_terms,
    is_ideal_term,
    parse_term,
    property_mp,
    random_ideal_terms,
    serialize_term,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
