"""grpf: exact cohomology and Pfaffian-side geometry for Gr(2, n).

What lives where:

* :mod:`grpf.weights`   a weight is the tuple pair (s, q), checked by
  ``check_weight(n, s, q)``; Weyl dimensions, Gaussian binomials and the
  Poincare polynomial of Gr(2, n) as coefficient tuples
* :mod:`grpf.schur`     Clebsch-Gordan, the Cauchy identity; a class of
  bundles is the dict {(s_weight, q_weight): multiplicity}, checked once
  by ``weights.check_class``
* :mod:`grpf.bwb`       the Borel-Weil-Bott engine (``bott(n, s, q)``),
  cohomology tables of classes and their Euler characteristics
* :mod:`grpf.geometry`  parameter classification, windows as frozensets
  of labels, strata
* :mod:`grpf.sections`  Hodge diamonds and deformations of linear sections,
  exceptional-collection and twisted-vanishing verifiers
* :mod:`grpf.diamond`   Hodge diamonds as dicts {(p, q): h}
* :mod:`grpf.modp`      a field named by its modulus (None for Q, an odd
  prime p for F_p): row reduction, Pfaffians and roots mod p
* :mod:`grpf.pfaffian`  skew families of 2-forms (:class:`~grpf.pfaffian.AMap`),
  their exact Pfaffians as dicts {exponent tuple: nonzero coefficient},
  finite-field point sampling, hypersurface Hodge numbers
* :mod:`grpf.verify`    the named checks behind ``grpf verify-all``
* :mod:`grpf.errors`    the exception types
* :mod:`grpf.cli`       the ``grpf`` command line tool
"""

from .bwb import bott, cohomology_of_kclass
from .geometry import (
    Classification,
    ModelParams,
    classify,
    grassmannian_window,
    orthogonal_rectangle,
    pfaffian_stratum_codim,
    pfaffian_window,
    window_sets,
)
from .pfaffian import (
    AMap,
    SamplePoint,
    hypersurface_hodge,
    pfaffian_polynomial,
    sample_y2,
    submaximal_pfaffians,
)
from .schur import cauchy_exterior_cotangent, clebsch_gordan_rank2
from .sections import (
    h1_tangent_y1,
    hodge_diamond_y1,
    omega_p_class,
    twisted_ext_vanishing,
    verify_strong_exceptional,
)
from .weights import check_weight, grassmannian_poincare

__version__ = "0.1.0"
