"""Dynamic quantum Fisher information for thermal spin probes.

A Gibbs state exp(-beta H)/Z is evolved by a parameter-dependent unitary;
this package computes the resulting QFI through three independent routes,
evaluates the universal upper bounds that control it (variance, seminorm,
product, and gap forms), provides closed-form oracles for the linear and
one-axis-twisting spin encodings, and drives grid sweeps with
deterministic CSV/JSON output. Units: k_B = hbar = 1.
"""

from .bounds import (
    BoundReport,
    GapBounds,
    UnsupportedEncodingError,
    bound_report,
    gap_bounds,
    minimum_gap,
    noncommutativity,
    product_bound,
    scheme_product_bound,
    seminorm_bound,
    variance_bound,
)
from .closed_forms import (
    large_j_linear_approx,
    linear_qfi_closed,
    linear_variance_closed,
    oat_eta,
    oat_qfi_closed,
    oat_seminorm_semiclassical,
    oat_variance_closed,
)
from .encoding import (
    ExplicitGenerator,
    HamiltonianFamily,
    NumericUnitary,
    evolution_unitary,
    generator_explicit,
    generator_fd,
    generator_integral,
    transformed_generator,
)
from .models import (
    Scenario,
    build_scenario,
    closed_qfi,
    closed_variance,
    lmg_hamiltonian,
)
from .operators import (
    EigensolverError,
    NotHermitianError,
    SpectralDecomposition,
    commutator_i,
    eigendecompose,
    hermiticity_defect,
    matrix_exp_scaled,
    require_hermitian,
    require_unitary,
    seminorm,
    variance,
)
from .qfi import QfiReport, qfi_general, qfi_report, qfi_sld, qfi_thermal, tanhc
from .spin import (
    MAX_TWICE_J,
    m_values,
    oat_commutator,
    rotated_oat_operator,
    spin_dim,
    spin_operators,
    spin_value,
)
from .sweep import (
    CSV_COLUMNS,
    ConfigError,
    SweepConfig,
    SweepRow,
    emit_csv,
    emit_json,
    figure_configs,
    load_config,
    render_csv,
    run_sweep,
)
from .thermal import (
    GibbsState,
    SpectralProbe,
    beta_from_polarization,
    gibbs_state,
    partition_moment_ratio,
    partition_moments,
    polarization,
)

__version__ = "0.1.0"
