"""Scale-indexed asymmetric gauges: axioms, topologies, norms, and energies.

The package models distance-like data that depends on a positive scale and
need not be symmetric.  Additive-regime gauges aggregate with +, conorm-regime
gauges take values in [0, 1] and aggregate with a t-conorm.  On finite point
sets every sweep is exhaustive: axiom sweeps, ball topologies and their join,
covers and nets, Luxemburg-style norms, directed-graph energies, and discrete
Musielak-Orlicz modulars.  Triangle verdicts are exact in the rationals
where the kernel's lane pass runs (integer and k/2**m data), else float ones.
"""

from .axioms import (AxiomReport, Violation, check_axioms, convexity_check,
                     enriched_triangle_check)
from .completeness import (CauchyClassification, CellInclusionError,
                           CoverResult, HeineBorelReport, LpNet, LpTailReport,
                           TransportResult, TruncatedSequenceFamily,
                           classify_cauchy, classify_cauchy_thresholds,
                           converges_to, greedy_net, heine_borel_report,
                           lp_distance, lp_family_net, lp_tail_criterion,
                           transport_total_boundedness,
                           two_sided_cover_from_onesided)
from .conorms import TConorm, conorm_from_name
from .envelopes import PartialFunction, lower_envelope, upper_envelope
from .extreal import INF, ext_mul, format_ext, parse_ext
from .gauges import (GaugeSpec, Regime, gauge_from_json, gauge_to_json,
                     make_classical_modular, make_min_cap,
                     make_one_sided_integral, make_ratio, make_scaled_metric,
                     make_sublinear, opposite, symmetrize)
from .graphs import (DirectedGraph, DynamicCostSchedule, Edge,
                     asymmetry_index, distance_matrix, dynamic_distance,
                     energy_luxemburg, forward_distance, forward_energy,
                     graph_from_json, graph_gauge, graph_to_json,
                     schedule_from_json, schedule_to_json)
from .luxemburg import (LuxemburgResult, NonmonotoneGaugeError,
                        luxemburg_distance, luxemburg_infimum,
                        quasi_pseudometric_check, symmetrized_luxemburg)
from .orlicz import (DiscreteMeasureSpace, MusielakOrlicz, OneSidedPair,
                     UnitBallReport, luxemburg_norm, modular,
                     one_sided_gauges, one_sided_modular_gauge,
                     one_sided_modulars, orlicz_from_json, parse_function,
                     quasi_metric_from_gauges, unit_ball_check)
from .profiles import Profile, ScaleGrid, profile_convolve, right_regularize
from .topology import (FiniteTopology, JoinReport, ThresholdSet, ball,
                       compose, critical_thresholds, entourage,
                       generate_topology, join_topologies,
                       quasi_uniformity_report, small_composite_check,
                       verify_join_equality)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
