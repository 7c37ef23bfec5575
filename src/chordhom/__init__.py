"""Exact invariants of chord algebras: free path-algebra DGAs, their
cyclic and decorated complexes, surgery complexes over filling models, and
the vanishing-cycle pipeline, all over the rationals."""

from .algebra import (
    BaseRing,
    ChordAlgebra,
    Element,
    Generator,
    Word,
)
from .complexes import (
    CyclicWord,
    build_cyclic_complex,
    build_ho_complex,
    build_hoplus_complex,
    build_mcyc_complex,
    cyclic_class,
    ho_vanishes_by_unit_differential,
    verify_en_isomorphism,
)
from .dga import (
    Augmentation,
    DGAMorphism,
    DGASpec,
    adjoin_q,
    check_d_squared,
    check_morphism,
    compose_morphisms,
    enumerate_augmentations,
    extend_leibniz,
    linearize,
    rel_q_construction,
)
from .homology import BettiTable, GradedChainComplex, betti, verify_les_ranks
from .lefschetz import (
    CurvedAinf,
    DirectedAinfSpec,
    build_curved_category,
    check_curved_ainf,
    dualize_tensor_algebra,
    hochschild_complex,
    lefschetz_dga,
    verify_dictionary,
)
from .surgery import (
    FillingModel,
    Orbit,
    SurgeryCountTable,
    assemble_cobordism_map,
    build_lch_surgery,
    build_sh_surgery,
    build_shplus_surgery,
    builtin_ball_filling,
    empty_filling,
    verify_kappa_isomorphism,
)

__version__ = "0.1.0"
