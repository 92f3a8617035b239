"""The privacy-aware secure classification pipeline.

End-to-end usage::

    from repro.core import PrivacyAwareClassifier, PipelineConfig
    from repro.data import generate_warfarin, train_test_split

    train, test = train_test_split(generate_warfarin(), seed=0)
    pac = PrivacyAwareClassifier(PipelineConfig(classifier="naive_bayes"))
    pac.fit(train)
    solution = pac.select_disclosure(risk_budget=0.05)
    label = pac.classify(test.X[0])          # live hybrid protocol
    print(pac.speedup())                     # vs. pure SMC

The pipeline decides *what to disclose* once (per budget) and then
answers any number of queries with the hybrid protocol: disclosed
features travel in plaintext, everything else is evaluated under
encryption using the Bost-style protocols in :mod:`repro.secure`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

import repro.telemetry as telemetry
from repro.classifiers.decision_tree import DecisionTreeClassifier
from repro.classifiers.linear import LogisticRegressionClassifier
from repro.classifiers.naive_bayes import NaiveBayesClassifier
from repro.core.exceptions import ReproError
from repro.core.session import PROTOCOL_BACKENDS, SessionConfig
from repro.data.schema import Dataset
from repro.privacy.adversary import NaiveBayesAdversary
from repro.privacy.incremental import IncrementalRiskEvaluator
from repro.privacy.risk import RiskMetric
from repro.secure.backends import make_protocol_backend
from repro.secure.costing import ProtocolSizes
from repro.secure.encoding import FixedPointEncoder
from repro.secure.secure_linear import SecureLinearClassifier
from repro.secure.secure_naive_bayes import SecureNaiveBayesClassifier
from repro.secure.secure_tree import SecureDecisionTreeClassifier
from repro.selection.annealing import solve_annealing
from repro.selection.branch_and_bound import solve_branch_and_bound
from repro.selection.exhaustive import solve_exhaustive
from repro.selection.greedy import solve_greedy
from repro.selection.problem import DisclosureProblem, DisclosureSolution
from repro.smc.context import TwoPartyContext, make_context
from repro.smc.cost_model import CostModel, NATIVE_1024
from repro.smc.network import NetworkProfile
from repro.smc.protocol import ExecutionTrace

CLASSIFIER_KINDS = ("linear", "naive_bayes", "tree")
SOLVERS: Dict[str, Callable[[DisclosureProblem], DisclosureSolution]] = {
    "greedy": solve_greedy,
    "branch_and_bound": solve_branch_and_bound,
    "exhaustive": solve_exhaustive,
    "annealing": solve_annealing,
}


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration of a :class:`PrivacyAwareClassifier`.

    Attributes
    ----------
    classifier:
        ``"linear"``, ``"naive_bayes"`` or ``"tree"``.
    risk_metric:
        Privacy-loss aggregate (see :class:`repro.privacy.risk.RiskMetric`).
    precision_bits:
        Fixed-point precision of model parameters.
    cost_model:
        How analytic traces are priced into seconds; defaults to the
        native-1024-bit hardware profile over a LAN.
    adversary_model:
        ``"naive_bayes"`` (default; factorised, enables the fast
        incremental risk path) or ``"chow_liu"`` (tree-structured joint;
        exact inference, better calibrated on strongly correlated
        cohorts, evaluated per set with caching).
    risk_sample_rows:
        Number of cohort rows the risk expectation averages over
        (deterministic prefix after shuffling at fit time).
    public_is_background:
        Treat schema-``public`` features as adversary background
        knowledge: disclosing them is free, and the optimizer gets them
        for free as ``free_features``.
    paillier_bits / dgk_bits / dgk_plaintext_bits:
        Key sizes for the *live* protocol context created by
        :meth:`PrivacyAwareClassifier.make_context`.
    protocol_backend:
        Online-phase protocol engine for live queries *and* the
        analytic cost model: ``"paillier"`` (default) or ``"shares"``
        (linear models only; secret-sharing online phase over
        precomputed Beaver triples). One backend instance is shared by
        every context the pipeline creates, so the shares backend's
        offline triple store amortises across queries.
    seed:
        Master seed for sampling and key generation.
    session:
        Optional :class:`repro.core.session.SessionConfig` governing the
        live crypto session wholesale. When given it takes precedence
        over the per-parameter ``paillier_bits`` / ``dgk_bits`` /
        ``seed`` fields above for context creation
        (those remain in force for the analytic cost model's sizes).

    Example::

        config = PipelineConfig(classifier="naive_bayes",
                                paillier_bits=384, dgk_bits=192)
        pipeline = PrivacyAwareClassifier(config).fit(train)
    """

    classifier: str = "naive_bayes"
    risk_metric: RiskMetric = RiskMetric.MAX_POSTERIOR
    adversary_model: str = "naive_bayes"
    precision_bits: int = 10
    cost_model: CostModel = field(
        default_factory=lambda: CostModel(
            hardware=NATIVE_1024, network=NetworkProfile.LAN, traffic_scale=2.0
        )
    )
    risk_sample_rows: int = 300
    public_is_background: bool = True
    paillier_bits: int = 512
    dgk_bits: int = 256
    dgk_plaintext_bits: int = 16
    protocol_backend: str = "paillier"
    tree_max_depth: int = 6
    linear_iterations: int = 300
    seed: int = 0
    session: Optional[SessionConfig] = None

    def __post_init__(self) -> None:
        if self.classifier not in CLASSIFIER_KINDS:
            raise ReproError(
                f"unknown classifier {self.classifier!r}; "
                f"expected one of {CLASSIFIER_KINDS}"
            )
        if self.adversary_model not in ("naive_bayes", "chow_liu"):
            raise ReproError(
                f"unknown adversary model {self.adversary_model!r}; "
                f"expected 'naive_bayes' or 'chow_liu'"
            )
        if self.protocol_backend not in PROTOCOL_BACKENDS:
            raise ReproError(
                f"unknown protocol backend {self.protocol_backend!r}; "
                f"expected one of {PROTOCOL_BACKENDS}"
            )
        if (
            self.effective_protocol_backend() != "paillier"
            and self.classifier != "linear"
        ):
            raise ReproError(
                f"protocol_backend "
                f"{self.effective_protocol_backend()!r} supports "
                f"classifier='linear' only; {self.classifier!r} runs on "
                f"the Paillier protocol stack"
            )

    def effective_protocol_backend(self) -> str:
        """The protocol backend live sessions will actually use (the
        explicit ``session`` config wins over the pipeline field)."""
        if self.session is not None:
            return self.session.protocol_backend
        return self.protocol_backend

    def session_config(self) -> SessionConfig:
        """The session configuration for live crypto contexts.

        The explicit ``session`` field wins; otherwise one is assembled
        from the pipeline's per-parameter key-size/backend/seed fields.
        """
        if self.session is not None:
            return self.session
        return SessionConfig(
            seed=self.seed,
            paillier_bits=self.paillier_bits,
            dgk_bits=self.dgk_bits,
            dgk_plaintext_bits=self.dgk_plaintext_bits,
            protocol_backend=self.protocol_backend,
        )


class PrivacyAwareClassifier:
    """Train, optimize disclosure, classify -- the paper's system.

    The end-to-end pipeline of Pattuk et al. (ICDE 2016): :meth:`fit`
    trains the plaintext model and the adversary's background model on
    a cohort; :meth:`select_disclosure` solves the constrained
    optimization that picks which features to disclose in plaintext so
    the adversary's gain stays under a risk budget while the remaining
    secure evaluation (Bost-style encrypted classification over
    Paillier/DGK) gets as cheap as possible; :meth:`classify` then runs
    one live hybrid query through a two-party context. :meth:`speedup`
    reports the modeled gain over pure SMC for the chosen set.

    Example::

        pipeline = PrivacyAwareClassifier(
            PipelineConfig(classifier="naive_bayes")
        ).fit(train)
        solution = pipeline.select_disclosure(risk_budget=0.1)
        ctx = pipeline.make_context(seed=7)
        label = pipeline.classify(test.X[0], ctx=ctx)
    """

    def __init__(self, config: Optional[PipelineConfig] = None) -> None:
        self.config = config or PipelineConfig()
        self._dataset: Optional[Dataset] = None
        self._plain = None
        self._secure = None
        self._risk_evaluator: Optional[IncrementalRiskEvaluator] = None
        self._risk_function = None
        self._cost_memo: Dict[FrozenSet[int], float] = {}
        self._solution: Optional[DisclosureSolution] = None
        self._context: Optional[TwoPartyContext] = None
        self._protocol_backend = None

    # -- training --------------------------------------------------------

    def fit(self, dataset: Dataset) -> "PrivacyAwareClassifier":
        """Train the model and the adversary on ``dataset``."""
        config = self.config
        self._dataset = dataset
        self._cost_memo = {}

        if config.classifier == "linear":
            plain = LogisticRegressionClassifier(
                iterations=config.linear_iterations
            ).fit(dataset.X, dataset.y)
        elif config.classifier == "naive_bayes":
            plain = NaiveBayesClassifier(domain_sizes=dataset.domain_sizes).fit(
                dataset.X, dataset.y
            )
        else:
            plain = DecisionTreeClassifier(max_depth=config.tree_max_depth).fit(
                dataset.X, dataset.y
            )
        self._plain = plain

        encoder = FixedPointEncoder(config.precision_bits)
        sizes = ProtocolSizes(
            paillier_bits=config.paillier_bits, dgk_bits=config.dgk_bits
        )
        if config.classifier == "linear":
            self._secure = SecureLinearClassifier(
                plain, dataset.features, encoder=encoder, sizes=sizes
            )
        elif config.classifier == "naive_bayes":
            self._secure = SecureNaiveBayesClassifier(
                plain, dataset.features, encoder=encoder, sizes=sizes
            )
        else:
            marginals = [
                np.bincount(dataset.X[:, f], minlength=spec.domain_size)
                for f, spec in enumerate(dataset.features)
            ]
            self._secure = SecureDecisionTreeClassifier(
                plain, dataset.features, feature_marginals=marginals, sizes=sizes
            )

        # Risk machinery over a deterministic row sample.
        rng = np.random.default_rng(config.seed)
        order = rng.permutation(dataset.n_samples)
        sample = dataset.X[order[: config.risk_sample_rows]]
        background = (
            tuple(dataset.public_indices) if config.public_is_background else ()
        )
        if config.adversary_model == "naive_bayes":
            adversary = NaiveBayesAdversary(
                dataset.X, dataset.domain_sizes, dataset.sensitive_indices
            )
            self._risk_evaluator = IncrementalRiskEvaluator(
                adversary,
                sample,
                dataset.sensitive_indices,
                metric=config.risk_metric,
                background_columns=background,
            )
            risk_function = self._risk_evaluator.as_risk_function()
        else:
            from repro.privacy.adversary import ChowLiuAdversary
            from repro.privacy.risk import RiskModel

            adversary = ChowLiuAdversary(
                dataset.X, dataset.domain_sizes, dataset.sensitive_indices
            )
            self._risk_evaluator = None
            risk_model = RiskModel(
                adversary=adversary,
                evaluation_rows=sample,
                sensitive_columns=dataset.sensitive_indices,
                metric=config.risk_metric,
                background_columns=background,
            )
            risk_function = risk_model.risk
        # Like the cost, risk is priced once per set and fit.
        self._risk_function = functools.partial(
            _memoized, {}, price=risk_function
        )
        self._solution = None
        return self

    # -- disclosure optimization -------------------------------------------

    def build_problem(self, risk_budget: float) -> DisclosureProblem:
        """The optimization instance for a given privacy budget."""
        dataset = self._require_fitted()
        background = set(
            dataset.public_indices if self.config.public_is_background else ()
        )
        # Every non-background feature is a candidate -- including
        # sensitive attributes, whose disclosure the risk model prices
        # at maximal loss (so only near-1 budgets ever select them).
        candidates = tuple(
            i for i in range(dataset.n_features) if i not in background
        )
        return DisclosureProblem(
            candidates=candidates,
            risk=self._risk_function,
            cost=self.estimated_cost_seconds,
            risk_budget=risk_budget,
            free_features=tuple(sorted(background)),
        )

    def select_disclosure(
        self, risk_budget: float, solver: str = "greedy"
    ) -> DisclosureSolution:
        """Choose the disclosure set for ``risk_budget`` and remember it."""
        if solver not in SOLVERS:
            raise ReproError(
                f"unknown solver {solver!r}; expected one of {sorted(SOLVERS)}"
            )
        problem = self.build_problem(risk_budget)
        self._solution = SOLVERS[solver](problem)
        return self._solution

    # -- cost and risk views ---------------------------------------------------

    def estimated_cost_seconds(self, disclosure_set: Iterable[int] = ()) -> float:
        """Modeled per-query seconds under the configured cost model.

        Priced once per set and fit: a budget sweep asks for the same
        sets again and again (see :func:`_memoized`).
        """
        return _memoized(
            self._cost_memo,
            disclosure_set,
            lambda key: self.config.cost_model.total_seconds(
                self.estimated_trace(key)
            ),
        )

    def estimated_trace(self, disclosure_set: Iterable[int] = ()) -> ExecutionTrace:
        """Analytic per-query trace for a disclosure set, under the
        configured protocol backend."""
        secure = self._require_secure()
        if isinstance(secure, SecureLinearClassifier):
            return secure.estimated_trace(
                disclosure_set, backend=self.protocol_backend()
            )
        return secure.estimated_trace(disclosure_set)

    def pure_smc_cost(self) -> float:
        """Modeled cost with nothing disclosed (the paper's baseline)."""
        return self.estimated_cost_seconds(())

    def optimized_cost(self) -> float:
        """Modeled cost under the selected disclosure set."""
        return self.estimated_cost_seconds(self._require_solution().disclosed)

    def speedup(self) -> float:
        """``pure_smc_cost / optimized_cost`` -- the headline number."""
        return self.pure_smc_cost() / self.optimized_cost()

    def disclosure_risk(self) -> float:
        """Privacy loss of the selected disclosure set."""
        return self._require_solution().risk

    # -- classification -------------------------------------------------------

    def protocol_backend(self):
        """The pipeline's shared protocol backend instance.

        Created once and attached to every context the pipeline builds,
        so under the shares backend all queries drain one offline
        :class:`~repro.crypto.triples.TripleStore`.
        """
        if self._protocol_backend is None:
            self._protocol_backend = make_protocol_backend(
                self.config.effective_protocol_backend()
            )
        return self._protocol_backend

    def make_context(self, seed: Optional[int] = None) -> TwoPartyContext:
        """Create a live two-party crypto session (keys generated)."""
        session = self.config.session_config()
        if seed is not None:
            session = session.with_overrides(seed=seed)
        return make_context(
            config=session, protocol_backend=self.protocol_backend()
        )

    def classify(
        self,
        row: np.ndarray,
        ctx: Optional[TwoPartyContext] = None,
        disclosure_set: Optional[Iterable[int]] = None,
    ) -> int:
        """Classify one row with the live hybrid protocol.

        Uses the remembered disclosure solution unless an explicit
        ``disclosure_set`` is given; creates (and caches) a crypto
        context on first use unless one is provided.
        """
        secure = self._require_secure()
        if disclosure_set is None:
            disclosure_set = self._require_solution().disclosed
        if ctx is None:
            if self._context is None:
                self._context = self.make_context()
            ctx = self._context
        if not telemetry.enabled():
            return secure.classify(ctx, np.asarray(row), disclosure_set)
        with telemetry.span(
            "pipeline.classify", classifier=self.config.classifier
        ) as span:
            label = secure.classify(ctx, np.asarray(row), disclosure_set)
            span.set("label", int(label))
            return label

    def classify_batch(
        self,
        rows: np.ndarray,
        ctx: Optional[TwoPartyContext] = None,
        disclosure_set: Optional[Iterable[int]] = None,
    ) -> List[int]:
        """Classify several rows over one live session.

        Key material and the crypto context are set up once and reused
        across the batch (the amortization experiment E18 quantifies
        the saving); every query still runs the full hybrid protocol.
        """
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ReproError(
                f"classify_batch expects a 2-d matrix, got {rows.shape}"
            )
        if ctx is None:
            if self._context is None:
                self._context = self.make_context()
            ctx = self._context
        return [
            self.classify(row, ctx=ctx, disclosure_set=disclosure_set)
            for row in rows
        ]

    def predict_plain(self, features: np.ndarray) -> np.ndarray:
        """Plaintext batch prediction with the underlying model."""
        plain = self._plain
        if plain is None:
            raise ReproError("fit() must be called before prediction")
        return plain.predict(np.asarray(features))

    # -- accessors -----------------------------------------------------------

    @property
    def plain_model(self):
        """The trained plaintext classifier."""
        if self._plain is None:
            raise ReproError("fit() must be called first")
        return self._plain

    @property
    def secure_model(self):
        """The secure protocol wrapper."""
        return self._require_secure()

    @property
    def risk_evaluator(self) -> IncrementalRiskEvaluator:
        """The incremental privacy-risk evaluator (only available under
        the ``naive_bayes`` adversary model)."""
        if self._risk_evaluator is None:
            raise ReproError(
                "no incremental evaluator: fit() not called, or the "
                "pipeline uses the chow_liu adversary model"
            )
        return self._risk_evaluator

    @property
    def solution(self) -> DisclosureSolution:
        """The most recent disclosure solution."""
        return self._require_solution()

    def _require_fitted(self) -> Dataset:
        if self._dataset is None:
            raise ReproError("fit() must be called first")
        return self._dataset

    def _require_secure(self):
        if self._secure is None:
            raise ReproError("fit() must be called first")
        return self._secure

    def _require_solution(self) -> DisclosureSolution:
        if self._solution is None:
            raise ReproError(
                "select_disclosure() must be called before this operation"
            )
        return self._solution


def _memoized(
    memo: Dict[FrozenSet[int], float],
    disclosure_set: Iterable[int],
    price: Callable[[FrozenSet[int]], float],
) -> float:
    """``price(S)`` for the set ``S``, computed on the first request only.

    The key is the set itself, so a set reached through any order of
    pushes and pops gets the identical float. Only results are stored:
    a set whose pricing raises is priced again on the next request.
    """
    key = frozenset(int(i) for i in disclosure_set)
    value = memo.get(key)
    if value is None:
        value = memo[key] = price(key)
    return value
