"""Certify multipartite entanglement from partial correlation data.

The toolkit builds the separability moment matrix for a set of one- and
two-body Pauli correlators, solves the noise-robustness semidefinite program
with a self-contained interior-point solver, and extracts the dual-certified
entanglement witness.  Generators for the supported physical scenarios and
evaluators for the analytic witness families round out the pipeline.
"""

__version__ = "0.1.0"

from .corrdata import (AXES, CollectiveMoments, CorrelationDataset, PauliAxis,
                       new_dataset, one_body_label, parse_label, read_dataset,
                       two_body_label, write_dataset)
from .errors import (BadKey, BadNoiseLevel, BadSize, MissingData, NotDensity,
                     NotEntangled, NotNormalized, ParseError, SchemeMismatch,
                     SepcertError, SolverFailure, TooLarge, ValueOutOfRange,
                     WrongSize)
from .momentmat import (GENERAL_SCHEME, Constant, Data, FreeVar,
                        MomentMatrixLayout, Monomial, MonomialBasis, SchemeKind,
                        SymmetryScheme, Zero, build_layout, closed_form_check,
                        layout_for, monomial_basis, select_scheme)
from .physmodels import (ModelKind, ModelSpec, OptimalStructureWitness,
                         QuenchAmplitudes, StructureFactorValue,
                         commensurate_grid, concurrence_noise_robustness,
                         optimal_structure_witness, pair_density_from_quench,
                         quench_amplitudes, quench_dataset, ring_coordinates,
                         state_dataset, structure_factor, structure_factor_curve,
                         sum_triple_dataset, thermal_dataset_ed, werner_dataset,
                         wootters_concurrence)
from .sdpcore import (DETECTION_THRESHOLD, SdpProblem, SdpSolution, SdpStatus,
                      SolverOptions, assemble_primal, certify, extract_witness,
                      solve)
from .seporacle import (ProductState, SeparableMixture, dataset_of,
                        max_over_product_states, random_product_state,
                        random_separable_mixture)
from .witnesslab import (BipartiteKernel, CmcResult, SpinSqueezingResult,
                         Witness, WitnessEvaluation, bipartite_kernel,
                         bipartite_kernel_closed_form, bipartite_witness_value,
                         cmc_check, eval_witness, phase_witness_value,
                         read_witness, spin_squeezing_check,
                         spin_structure_factor_bound, structure_witness_value,
                         write_witness)
