"""kakeyalab: an exact computational laboratory for maximal Kakeya
estimates, X-ray transforms and extremal set searches over (Z/NZ)^n."""

from .ring import (DualFrequency, Generic, PAdic, Profinite, RingContext,
                   ScaleOverflowError, ScaleSemantics, crt_combine, crt_split,
                   dual_frequency, dual_valuation, factorize, scale)
from .geometry import (EnumerationCapError, Flat, ProjDirection, QuotientChart,
                       canonical_direction, canonical_flat, enumerate_grassmannian,
                       enumerate_proj, flat_points, gr_size, lift_direction,
                       line_crt_decompose, proj_size, quotient_chart)
from .cyclotomic import cyclotomic_poly
from .harmonic import (ConstancyError, Density, Spectrum, band_constant,
                       band_project, band_valuation_sets, fourier_forward,
                       fourier_inverse, induce_to_modulus, xray_l2_spectral,
                       xray_transform)
from .maximal import (ChainConstant, ConstantLedger, MaximalProfile,
                      appendix_constant, chain_constant, constant_ledger, f_star,
                      flat_maximal, line_maximal, maxN_constant, mweight, rounding_g)
from .search import (BudgetExceeded, KakeyaCertificate, certify,
                     exact_min_kakeya, greedy_kakeya)
from .verify import (CHECK_IDS, VerificationReport, random_density, run_checks,
                     verify_besicovitch, verify_divisor_reduction,
                     verify_freqbound, verify_main_theorem, verify_maxest,
                     verify_plancherel, verify_projmax, verify_radius_lemma,
                     verify_rounding, verify_xray_l2)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
