"""specguard: certified pseudospectrum brackets for data-driven spectral analysis.

Estimates how far a complex number lies from the spectrum of an unknown
transfer operator using only snapshot data, with two-sided certified error
brackets, eigenvalue hypothesis tests, and spectral-gap clustering.
"""

from .charmatrix import (
    EigenMode,
    GramPair,
    edmd_matrix,
    eigensystem,
    gram_matrices,
)
from .errors import SpecguardError
from .generators import (
    Lorenz63Spec,
    VarSpec,
    expanding_map_f,
    gen_expanding_map,
    gen_lorenz63,
    gen_var,
    var_benchmark_7d,
)
from .ingest import (
    DictionarySpec,
    SnapshotSeries,
    delay_embed,
    evaluate_dictionary,
    load_snapshots,
    write_snapshots,
)
from .oracle import (
    QuadratureMoments,
    VarMoments,
    run_oracle_checks,
    s_matrix_bruteforce,
    s_star_apply,
    var_p_exact,
    var_p_power,
    var_v_exact,
)
from .pseudospec import (
    GridSpec,
    PEstimate,
    PowerIterSettings,
    SweepResult,
    p_hat,
    power_iterate,
    sweep,
)
from .stats import (
    ClusterReport,
    ConfidenceRegion,
    EigTestResult,
    SpectralReport,
    chi2_cdf,
    cluster_eigenvalues,
    confidence_region,
    eig_test,
    p_value_from_mphat,
    spectrum_test,
)
from .variance import (
    KernelSpec,
    VarianceApplication,
    estimate_tau,
    kappa_w,
    metastability_kernel,
    variance_apply,
    variance_apply_naive,
    window_length,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "SpecguardError",
    # ingest
    "DictionarySpec",
    "SnapshotSeries",
    "delay_embed",
    "evaluate_dictionary",
    "load_snapshots",
    "write_snapshots",
    # generators
    "VarSpec",
    "Lorenz63Spec",
    "gen_var",
    "gen_expanding_map",
    "gen_lorenz63",
    "expanding_map_f",
    "var_benchmark_7d",
    # charmatrix
    "GramPair",
    "EigenMode",
    "gram_matrices",
    "edmd_matrix",
    "eigensystem",
    # variance
    "KernelSpec",
    "VarianceApplication",
    "kappa_w",
    "metastability_kernel",
    "window_length",
    "estimate_tau",
    "variance_apply",
    "variance_apply_naive",
    # pseudospec
    "PowerIterSettings",
    "PEstimate",
    "GridSpec",
    "SweepResult",
    "power_iterate",
    "p_hat",
    "sweep",
    # stats
    "chi2_cdf",
    "p_value_from_mphat",
    "EigTestResult",
    "eig_test",
    "SpectralReport",
    "spectrum_test",
    "ConfidenceRegion",
    "confidence_region",
    "ClusterReport",
    "cluster_eigenvalues",
    # oracle
    "var_p_exact",
    "var_v_exact",
    "VarMoments",
    "var_p_power",
    "QuadratureMoments",
    "s_matrix_bruteforce",
    "s_star_apply",
    "run_oracle_checks",
]
