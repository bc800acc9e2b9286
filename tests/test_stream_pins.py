"""Seeded-stream pins: SHA-256 digests of small seeded runs on every SSA engine.

Each digest covers a few seeded trials of one engine on one model — final
counts, final times, firing totals, stop reasons and stop details, plus the
full firing log (event times and reaction indices) for the per-trial
engines.  The models are the 12 conformance-corpus models and the paper's
Example 1 (outcomes programmed to 0.3/0.4/0.3, γ = 10³, scale 100, outcome
declared after 10 working firings).

The committed digests are the determinism contract of the kernel layer: a
refactor of the engines, the kernels or the stopping plans must leave every
one unchanged.  The ``direct``, ``first-reaction``, ``next-reaction`` and
``batch-direct`` rows run on the numpy backend here; the CI job that
installs numba runs the same file on the numba backend against the same
digests (the two backends are bit-identical).  The tau-leaping rows pin its
leap loop and its exact-step fallback at a tight and a loose ε.

The ensemble pins cover the layer above: whole seeded
``Experiment.simulate(engine="batch-direct")`` runs over many chunks (the
arrays plus the outcome counts in insertion order), so they pin the chunk
schedule, the per-chunk sub-seeds, the grouping of chunks into sweeps and
the outcome classification together.  The per-trial ensemble pins do the
same for ``direct``, ``first-reaction`` and ``next-reaction`` over a few
chunks each: the spawned per-trial streams, the t=0 stopping check, the
outcome classification and the assembly of chunks into shards.  The
tau-leaping ensemble pins run the same cases at ε = 0.03 through the same
per-trial chunk path.

To refresh a digest after a *deliberate* stream change, print the current
values with ``PYTHONPATH=src python tests/test_stream_pins.py`` and name the
change in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.sim import TauLeapOptions, make_simulator, numba_available

#: The backend the exact engines run on: numba when the CI leg installs it,
#: else the always-available numpy reference.  Both must hit the same digests.
KERNEL_BACKEND = "numba" if numba_available() else "numpy"

PER_TRIAL_ENGINES = ("direct", "first-reaction", "next-reaction")
PER_TRIAL_TRIALS = 12
BATCH_TRIALS = 200
TAU_TRIALS = 5
TAU_EPSILONS = (0.03, 0.3)
EXAMPLE1 = "example-1"


def _models() -> "dict[str, tuple]":
    """``{name: (network, stopping)}`` for Example 1 and the corpus."""
    from repro.core.synthesizer import synthesize_distribution
    from repro.zoo.corpus import corpus_entries

    system = synthesize_distribution({"1": 0.3, "2": 0.4, "3": 0.3}, gamma=1e3, scale=100)
    models = {EXAMPLE1: (system.network_with_inputs(None), system.stopping_condition(10))}
    for entry in corpus_entries():
        models[entry.name] = (entry.model.network(), entry.model.stopping())
    return models


def _seed(model: str, engine: str) -> int:
    return int.from_bytes(hashlib.sha256(f"{model}/{engine}".encode()).digest()[:4], "little")


class _Digest:
    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def array(self, values, dtype) -> None:
        data = np.ascontiguousarray(values, dtype=dtype)
        self._hash.update(repr(data.shape).encode())
        self._hash.update(data.astype(data.dtype.newbyteorder("<")).tobytes())

    def text(self, value) -> None:
        encoded = str(value).encode()
        self._hash.update(len(encoded).to_bytes(4, "little") + encoded)

    def trajectory(self, trajectory) -> None:
        self.array(trajectory.final_state.to_vector(trajectory.species_order), np.int64)
        self.array([trajectory.final_time], np.float64)
        self.array(trajectory.firing_counts, np.int64)
        self.array(trajectory.times, np.float64)
        self.array(trajectory.reaction_indices, np.int64)
        self.text(trajectory.stop_reason)
        self.text(trajectory.stop_detail)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def run_digest(model: str, engine: str, models: dict) -> str:
    """Digest of the seeded runs of ``engine`` (a pin key) on ``model``."""
    network, stopping = models[model]
    digest = _Digest()
    seed = _seed(model, engine)
    if engine == "batch-direct":
        batch = make_simulator(network, engine=engine, seed=seed).run_batch(
            BATCH_TRIALS, stopping=stopping, backend=KERNEL_BACKEND
        )
        digest.array(batch.final_counts, np.int64)
        digest.array(batch.final_times, np.float64)
        digest.array(batch.firing_counts, np.int64)
        for reason, detail in zip(batch.stop_reasons, batch.stop_details):
            digest.text(reason)
            digest.text(detail)
    elif engine.startswith("tau-leaping"):
        epsilon = float(engine.partition("@")[2])
        simulator = make_simulator(
            network, engine="tau-leaping", seed=seed,
            engine_options=TauLeapOptions(epsilon=epsilon),
        )
        for _ in range(TAU_TRIALS):
            digest.trajectory(simulator.run(stopping=stopping))
    else:
        simulator = make_simulator(network, engine=engine, seed=seed)
        for _ in range(PER_TRIAL_TRIALS):
            digest.trajectory(simulator.run(stopping=stopping, backend=KERNEL_BACKEND))
    return digest.hexdigest()


def pin_keys(models: dict) -> "list[tuple[str, str]]":
    engines = [*PER_TRIAL_ENGINES, "batch-direct"]
    engines += [f"tau-leaping@{epsilon}" for epsilon in TAU_EPSILONS]
    return [(model, engine) for model in models for engine in engines]


#: Digests captured before the python template backend was retired; every
#: kernel-path stream must still reproduce them.
EXPECTED: "dict[tuple[str, str], str]" = {
    ('example-1', 'direct'): '33d8cc6a9198e590fa08ceafc73a5b9c802c51fd218ade640463908f0a44f731',
    ('example-1', 'first-reaction'): 'df47fedfb1f5c8f42efd61dda538fe9987c821b06227de9e87b17488367c51c4',
    ('example-1', 'next-reaction'): 'af45eda71f631375052d2d8c4b127c305e94c075adf4cde432631dd68757aa8e',
    ('example-1', 'batch-direct'): 'f0499f1921a0caa6c7e451b0fee22287c363df73dda04c6d049f3cc313e9f57d',
    ('example-1', 'tau-leaping@0.03'): '2b425e48046fd31fcc7a1b31566d5f65782497ff790180ebe4265621de63bde6',
    ('example-1', 'tau-leaping@0.3'): '0db0ce4d404999a8d92c6b0a7bb661e468cf534efdd129102f73f571725636ee',
    ('birth-death', 'direct'): 'b12bcbf9bca3ecd48cda378d5be8c92a156410b9a638ff77734b967a01c3cd45',
    ('birth-death', 'first-reaction'): '8e45ce07f087e903fecce71fb81efec1970dbb7b4ce0e100c99a8eb797e22b31',
    ('birth-death', 'next-reaction'): 'f454f7bcfde1d5bbef8f50a9053ddf2a9fbeb5590319448d9c7578f2ca0e89d3',
    ('birth-death', 'batch-direct'): '2ab6e08310168404cd8c3345bd908ae35f8025220d157f234847cf1341ca58fe',
    ('birth-death', 'tau-leaping@0.03'): '9c06969bc77e94cdef9d963b7f8a8af2fe81b654352e37d04349e6935514c89c',
    ('birth-death', 'tau-leaping@0.3'): '6c878ebe557f342adc9deecf06c01e5a6e0e30ef859f75f236f184418ddb04d8',
    ('cross-catalysis', 'direct'): 'd4c78f4bcbcd1be91635c238183de52ccf2059eb9074a505a7bdfdcd634c8303',
    ('cross-catalysis', 'first-reaction'): '70e30504badc4e749d9e8bdcffba82bf603384cf0f602654b263880440aedc29',
    ('cross-catalysis', 'next-reaction'): 'f61de6802338fc680b814fd1d851045cb70e57e3c6d8dcb8d8506fff0f5e41f4',
    ('cross-catalysis', 'batch-direct'): 'ad072d4cf1b1daa501e4f25735fa53329086b12c7cb8a3191ee039a24110036c',
    ('cross-catalysis', 'tau-leaping@0.03'): 'aa8768961e8d25b72cce139610de72f6cc0c323f6b83c1bc7ff4cc986b1967c9',
    ('cross-catalysis', 'tau-leaping@0.3'): '6c190c5543b1adddc076a820c7ce73e0aee62d010a0078f9b7839e02570f1aca',
    ('dimerization', 'direct'): '583614d9688c31c56badc3a8742534f9840409fd1f4c2dcbd78ff1a2ee9db449',
    ('dimerization', 'first-reaction'): 'ec36bb69d35dcc7b04eb2f61fcaa05abd8b9aba49f57bb70ced6f1b760193d01',
    ('dimerization', 'next-reaction'): '77724ab254defd9668f66630cd88a19bebb80dd84c84f7ee27dc509ed79e6c80',
    ('dimerization', 'batch-direct'): 'b0cc15616bb1565d2ef55efa706c80de0dab46bda4180397ab74ac1288b76982',
    ('dimerization', 'tau-leaping@0.03'): 'f237f6b110e60568c03d88dad80357a6ed91911b5d8bff2beaa4072e9aa7e791',
    ('dimerization', 'tau-leaping@0.3'): '73a37fb04fadede0bb62da8bed4312f11a65212c8513b3a4e5ef11357e0aaf20',
    ('lambda-decision', 'direct'): 'b9bbf6f9a706d38e520339c8ba865af1903358da5063ab804b470344628975db',
    ('lambda-decision', 'first-reaction'): '11d04bb98f43c7c064e3294afd7128bb998360d0940e9e3f1378d06e0581205a',
    ('lambda-decision', 'next-reaction'): '936293732cc80587e545160472a80a247689685cfdf663aad178cb58f91666b4',
    ('lambda-decision', 'batch-direct'): '71091a34cc704a0a9a7d6bcd951867985f9e2e918b70484fdf26dedae72f7d44',
    ('lambda-decision', 'tau-leaping@0.03'): 'aeabf154e4b91970f660f3f05f628164028db9d8fc9e3d37554993121b52f195',
    ('lambda-decision', 'tau-leaping@0.3'): 'ff4877f40b4a45dedc45e27e26bfe2ed372071476e0297e6a288b58014c2e14a',
    ('lambda-moi2', 'direct'): '14643d66f9e145dd8be1812fc80a95b7c978dcdd1e79bcb4dfeba4e5e3a9ad15',
    ('lambda-moi2', 'first-reaction'): '7f93f84bb638e67f7150eb5ae562aa2097f36a3ccd71267902c3c0b694179a77',
    ('lambda-moi2', 'next-reaction'): '15a1a40457303bcb8689cae3c1b5112505afc2e0126098260fac2e493c318b1b',
    ('lambda-moi2', 'batch-direct'): 'a01f900afe9be9e0c7f1ff9792d9c8537b71f212e0978bbe827549c99ed61cb7',
    ('lambda-moi2', 'tau-leaping@0.03'): 'e4cfb2974807da59b13734b491ed5eccdd234cbde7639403fd7a003ba1b92eb9',
    ('lambda-moi2', 'tau-leaping@0.3'): '1555849d569794e4b21bd32b011fdec8b8c6f5ecd34254c6f065c62aaa74d4c1',
    ('polya-urn', 'direct'): '6e1ab7c7b8e2b985009e21b956640ec35b6252f4f9d4122a6e663f6085fd9351',
    ('polya-urn', 'first-reaction'): 'd07120bbb15266428c5659298cf3192d367e5919be5d23eaeba0e62565279338',
    ('polya-urn', 'next-reaction'): 'c3fb26ce68f22e275b8c83890a1d4252120cbd3e8a757526c525e7420a617b0c',
    ('polya-urn', 'batch-direct'): '6ac0748d5272e9ab7e86ab8632feebca0112b7413e62c2d60d32917a5f9e67d3',
    ('polya-urn', 'tau-leaping@0.03'): '2dbd4a974d7f894523d2fa7f236537d6745ba2d885f7bb3c6ae96f0af0253bcd',
    ('polya-urn', 'tau-leaping@0.3'): '66184f8db94c4bb43c68ebe8e8c2d737190f73e24e466d823f5685488f3f4140',
    ('stiff-cascade', 'direct'): '42771aa75a137d6476046fabada359c23614d6e890a044ae164a341aab3bb687',
    ('stiff-cascade', 'first-reaction'): '78807b48b8a425ef21afab35b3cefec6c44cfdde71c7a8b10188e16568a7e3f3',
    ('stiff-cascade', 'next-reaction'): '2f58486449e03f060ababd86348375df05527107ab77eb7a580da44b091c30c4',
    ('stiff-cascade', 'batch-direct'): 'f80be3d0cb87b95d8fdba56ff626d1262b7916f5dfd436892b3315527db13850',
    ('stiff-cascade', 'tau-leaping@0.03'): 'b94037cea0e883e073881b02f467fefc8e2b61f1b409df7a9074238765e27cbb',
    ('stiff-cascade', 'tau-leaping@0.3'): '985c5fa9ec5e8fc51bc9bb99e92d932c1f4ce906912d94fa39b12b8e61215383',
    ('toggle-switch', 'direct'): '7b825227c3481988958a5b54fb811176ae45f2523aaf6d6cc60fce6cdc671cf4',
    ('toggle-switch', 'first-reaction'): 'aa2dc0814a5d193bf2c8e3ae04b840404dc6b63f88f910e6fc6b933be88c0759',
    ('toggle-switch', 'next-reaction'): 'a38f2196d3e63d3c0d613b27357fdddd88dcbf6115fc89afcd8560c3dc03b6d0',
    ('toggle-switch', 'batch-direct'): '044ad891b156b90dadd8366ab1c159cbad59e4ab5a8b03e66324c4f290fe59a8',
    ('toggle-switch', 'tau-leaping@0.03'): 'ea779431e082a700b5e5c8bbca1325af9db4e5fb7086fb9b92829b8970efbef4',
    ('toggle-switch', 'tau-leaping@0.3'): 'd5cbb6df0a0a450aa26e7a895e8f5751fdb3198b6a1c96d4f5b5b053b480130e',
    ('triple-race', 'direct'): 'd6e0e03c90482386ead5c4aa7d98cb90605092c6b50f7bfe46876b4d98297e63',
    ('triple-race', 'first-reaction'): '637c5863a165f5cd07666077c5472e32e62222cb6d322091b082887360faa629',
    ('triple-race', 'next-reaction'): '3f91aeb02b97c52c55d2124a861b10d378f3cb99a13fd826b4447d7758fe6358',
    ('triple-race', 'batch-direct'): '8b8a24b02ac75f998ce561508aa2ac123ecbd15096eaf4d05a0529f6480f326c',
    ('triple-race', 'tau-leaping@0.03'): 'db7ac96fbbe06c25834ac6cd5c7fc6ab21b35bdd6dada361ba5b58794c7e7880',
    ('triple-race', 'tau-leaping@0.3'): 'c2fea67b91a665d732e3fba1ad2271a868d679be3235bd0a4d72e18e95383a65',
    ('gen-k2-L1-x0-c0-n16-seed3', 'direct'): 'c7323fcd36979b94dc22775bccaeaec6fd4f8fc06c3cb0b7406c16a96d4fc022',
    ('gen-k2-L1-x0-c0-n16-seed3', 'first-reaction'): '0db7b7c51174fe1d179ec555809e0597d25a8d9241d15d6c721c339f86a3a2ee',
    ('gen-k2-L1-x0-c0-n16-seed3', 'next-reaction'): 'e63edd6491fdb3b64fc2601f0066d166b1f26b3313fda71626b0f5bf91e785bd',
    ('gen-k2-L1-x0-c0-n16-seed3', 'batch-direct'): '0febe33c218ce21ae71de654e5f8f8df4143b699462c84dad51da7d79bf478cc',
    ('gen-k2-L1-x0-c0-n16-seed3', 'tau-leaping@0.03'): 'b8b4e700da7c3e86a697daa563a16f1c04d82dc48a2f7b55e591598fe05da1cc',
    ('gen-k2-L1-x0-c0-n16-seed3', 'tau-leaping@0.3'): '8ff0d63341e67425ff8c421bbbf08f4dcc97ecc977076d4104d70cafbc9e78b2',
    ('gen-k3-L2-x2-c0-n15-seed3', 'direct'): 'ab3bd9cefe054d921147b7f4f6a765345b2e447bcdab4af455904bfd80760a5f',
    ('gen-k3-L2-x2-c0-n15-seed3', 'first-reaction'): '16227d494e63d5d90058a8bb723e28edc210a5ae7042bb0dbcb08adb32ce8167',
    ('gen-k3-L2-x2-c0-n15-seed3', 'next-reaction'): '19170f0a45119241f054bb470cd291e474cc11450cc3e928cddba891515ebe71',
    ('gen-k3-L2-x2-c0-n15-seed3', 'batch-direct'): '8c8e37813fa5f4bc4e93714c083be322cf56b128202b6af91d0ec7d5a1bb9b2a',
    ('gen-k3-L2-x2-c0-n15-seed3', 'tau-leaping@0.03'): '3597076622387ede19d86969b5095a7e228078ed80dfc1e31d7e320b260d061b',
    ('gen-k3-L2-x2-c0-n15-seed3', 'tau-leaping@0.3'): '19c2730227e62f390a75f2b3dba48b84fbe6d3c8ad47e9a3d4a891bf085b7374',
    ('gen-k2-L3-x1-c1-n14-seed6', 'direct'): '22f736231b8563c646068f7ed4b43dc528abf75650b8cb24bee1ebf3e144aef0',
    ('gen-k2-L3-x1-c1-n14-seed6', 'first-reaction'): '4f302310eda3ac5ab5a0190f8524fde8acb75200add1c1dc29973d855233a9c4',
    ('gen-k2-L3-x1-c1-n14-seed6', 'next-reaction'): 'aef1844b91e2f793fb56387e89fa30978927a5074d85e8f94e659287bba0cc77',
    ('gen-k2-L3-x1-c1-n14-seed6', 'batch-direct'): 'd1f14e542d41235abadb2343e8a61100e569c215f05be6b9cd37fb7b7d02087e',
    ('gen-k2-L3-x1-c1-n14-seed6', 'tau-leaping@0.03'): 'bba44cc97f7a0f0e0df319d3d4c2957b8ba93b6a9afd14c22955525887b187c7',
    ('gen-k2-L3-x1-c1-n14-seed6', 'tau-leaping@0.3'): '5ebba9c54227f2aa12656dedb6ee08847aa095077961c046b9377782fdc303bb',
}


# ---------------------------------------------------------------------------
# ensemble pins: seeded batch-direct Experiment.simulate runs
# ---------------------------------------------------------------------------

EX1_TARGET = {"1": 0.3, "2": 0.4, "3": 0.3}
RACE = """
init: ea = 70
init: eb = 30
ea ->{1} wa
eb ->{1} wb
"""
#: Reactant coefficients 1, 2 and 3 (the falling-factorial product path).
COEFFICIENTS = """
init: a = 30
init: c = 10
a + b ->{2.5} c
2 a ->{0.5} b
b ->{3} 0
3 c ->{0.25} a
"""


def race_predicate(time, state):
    """Module-level predicate (no clause encoding: a callback plan)."""
    if state["wa"] >= 3:
        return "A"
    if state["wb"] >= 3:
        return "B"
    return None


def _ensemble_cases() -> "dict[str, tuple]":
    """``{case: (experiment, trials, chunk_size, backend)}``."""
    from repro.api import Experiment
    from repro.crn import parse_network
    from repro.sim import AllCondition, PredicateCondition, SpeciesThreshold
    from repro.zoo.corpus import corpus_entries

    example1 = Experiment.from_distribution(EX1_TARGET, gamma=1e3, scale=100)
    race = parse_network(RACE)
    cases = {f"{EXAMPLE1}@10000/512": (example1, 10_000, 512, KERNEL_BACKEND)}
    for entry in corpus_entries():
        experiment = entry.model.experiment()
        for trials, chunk in ((1500, 512), (2000, 300)):
            cases[f"{entry.name}@{trials}/{chunk}"] = (
                experiment, trials, chunk, KERNEL_BACKEND
            )
    # About half the trials outlive the horizon (overtime compaction).
    cases["max-time"] = (example1.configure(max_time=0.01), 2000, 512, KERNEL_BACKEND)
    # About half the trials hit the step cap before their outcome.
    toggle = Experiment.from_zoo("toggle-switch").configure(max_steps=15)
    cases["max-steps"] = (toggle, 2000, 512, KERNEL_BACKEND)
    # Conditions with no clause encoding run on the numpy sweep only.
    predicate = Experiment.from_network(race, stopping=PredicateCondition(race_predicate))
    cases["predicate"] = (predicate, 2000, 512, "numpy")
    both = Experiment.from_network(race, stopping=AllCondition(
        [SpeciesThreshold("wa", 2), SpeciesThreshold("wb", 2)]))
    cases["all-condition"] = (both, 1500, 512, "numpy")
    # Every trial meets the condition at t = 0: no chunk has a trial to sweep.
    at_zero = Experiment.from_network(race, stopping=SpeciesThreshold("ea", 50))
    cases["stop-at-t0"] = (at_zero, 1200, 512, KERNEL_BACKEND)
    # No condition: about half the trials exhaust (both reactants used up)
    # before the horizon and the rest reach it, in one group of three chunks.
    exhaustion = Experiment.from_network(race).configure(max_time=5.0)
    cases["exhaustion"] = (exhaustion, 1500, 512, KERNEL_BACKEND)
    # Reactant coefficients 2 and 3; about a third stop on the condition.
    coefficients = Experiment.from_network(
        parse_network(COEFFICIENTS), stopping=SpeciesThreshold("c", 13)
    ).configure(max_steps=30)
    cases["coefficients"] = (coefficients, 1500, 512, KERNEL_BACKEND)
    return cases


def _ensemble_seed(case: str) -> int:
    return _seed(case, "ensemble")


def _simulation_digest(experiment, engine: str, **simulate) -> str:
    """Digest of one seeded ``Experiment.simulate`` ensemble."""
    ensemble = experiment.simulate(engine=engine, **simulate).ensemble
    digest = _Digest()
    digest.array(ensemble.final_counts, np.int64)
    digest.array(ensemble.final_times, np.float64)
    digest.array(ensemble.n_firings, np.int64)
    for label, count in ensemble.outcome_counts.items():
        digest.text(label)
        digest.text(count)
    return digest.hexdigest()


def ensemble_digest(case: str, cases: dict) -> str:
    """Digest of one seeded ``batch-direct`` ensemble run."""
    experiment, trials, chunk, backend = cases[case]
    return _simulation_digest(
        experiment, "batch-direct", trials=trials, seed=_ensemble_seed(case),
        chunk_size=chunk, backend=backend,
    )


#: Digests captured before chunks were fused into groups of one sweep.
ENSEMBLE_EXPECTED: "dict[str, str]" = {
    'example-1@10000/512': '4ddee3dfec7fad2cd92d987c120d9a71bb686bf62a04818f62f23c1d16c54919',
    'birth-death@1500/512': '84ab4f21b909615c81457dee4b075aeb6fdd593bf8944c21cb426f311e67ea77',
    'birth-death@2000/300': '36d7207b6e85dff63ccc43e9f2e4abc9260ba5377ccd9698222a89bb280ba757',
    'cross-catalysis@1500/512': 'ac754cb5edb357b571b72bb042bb7b0a86f6dd1e41f1073e8f2dbe5ea232be22',
    'cross-catalysis@2000/300': 'e8a07984c9516bba0ec22dfb86f45ce0b6fea4805c5917ca6b1c30a858d64f95',
    'dimerization@1500/512': '6451095c3a1dc8ad62a14db83900461efab3f27ab337537d1f5f9540e461c467',
    'dimerization@2000/300': '3073124b9f67a2eab50f6a2e8335bd1efbe993460aa1b010525f4da257a709f1',
    'lambda-decision@1500/512': 'c42371e3e5f25814585cf4de6a00f0a25369dddd97aecb0604925ebefc6b74c9',
    'lambda-decision@2000/300': 'cdb8d6a8d48d8d869f341a806e273a03096a7616ace60a2c1df132c3e1614a36',
    'lambda-moi2@1500/512': '2102287921f6ec18b5c1a35bf8154daa1493cae7dead57bb8cc9eb686c1c3192',
    'lambda-moi2@2000/300': 'b639b975adf058a2cff4bf249965b8f2a8e7ac7284c7dedb5ed09bba439d47f2',
    'polya-urn@1500/512': 'b98991aa0b1c600ffc83ad1c686ccefdc11938cddeae2524a1df2054d439c083',
    'polya-urn@2000/300': 'ed8e5ab33d736bbd64e48935fc9bdb9e7e64360b3eea56c02447e67a6a3733c5',
    'stiff-cascade@1500/512': '03a96a74083bdb4bd95a580303a7f02720049e8d65006021ecfd3ae59b1c5994',
    'stiff-cascade@2000/300': '9830a6335aaa7be34d0b7855310f575e00e6ccdfdab41d6d7541c60547cb75f6',
    'toggle-switch@1500/512': '84aa2d32b3982ccf9b159e936e32b64c3331d19cacb7676fe89f83683d84be49',
    'toggle-switch@2000/300': '29ba6371be9fbf6a175c0e4a668f2d0cd68d50787fad5d55e715fe84be0e8c86',
    'triple-race@1500/512': '9a83bd5cd3d5a0bf82175005262edb0954ce6da7140f27b0bba5d996d00c5e94',
    'triple-race@2000/300': '0ca0e318e2f2f5d53a2258cc8590e6859ddd35928e6e92732d2524662495af9c',
    'gen-k2-L1-x0-c0-n16-seed3@1500/512': '6c92b32b0d4da2229a8853895c64cc4f1aebe68a4cbe64eb12de2e1509bfe52f',
    'gen-k2-L1-x0-c0-n16-seed3@2000/300': 'bf7691f479c38d1b5f2f049741e4fee423319a709ccda5a79acf1eeb7f139501',
    'gen-k3-L2-x2-c0-n15-seed3@1500/512': 'f47066de12f078f5a1ff3dddc908f879752d514ee8e258bd8ad33dbe335c8b2e',
    'gen-k3-L2-x2-c0-n15-seed3@2000/300': '2b71f5339ff589a61bf832d188effc304bbf4800a55abd29fd25981e91b0affd',
    'gen-k2-L3-x1-c1-n14-seed6@1500/512': '9b62ba8c8bfe50391e906a317a53ac6d6bfa47f11ec71232e73eedd4f1ba0cce',
    'gen-k2-L3-x1-c1-n14-seed6@2000/300': '7a98e42e7847d0d6604cb6b1524658156ad08b43bea8954be3c182555099e99a',
    'max-time': '59a7c36209d16e8acc57cd8340579484856d6ee8a1f9063d065297f6e09a347c',
    'max-steps': '368711b69488e86408458d4f7c72433085a388a7f1bd022cc9a2760d811d1f25',
    'predicate': '71f21c734c8384694c2d1f4a7385f84d99d7f66cb8da08e38dbe3b96bb66664e',
    'all-condition': '7f831c45c44c9e426882663c95acc700d179473eb02741b2c23b8691bfe73738',
    'stop-at-t0': 'e92d46ad521b6ff72b0f2413d6b29a97d102c3448221bf1f16ee86254d6388e4',
    # Captured before the numpy sweep moved to a one-column-per-trial
    # working state.
    'exhaustion': '99f15d36fc086bcb5f38e648c9bd0feca052e61e74e77c9ea52893fe3ae29505',
    'coefficients': '1867740c2bd67943c302fd956341266ce703450e914e780931c61868df9ed5d9',
}


# ---------------------------------------------------------------------------
# per-trial ensemble pins: seeded direct / first-reaction / next-reaction
# Experiment.simulate runs
# ---------------------------------------------------------------------------

PER_TRIAL_ENSEMBLE_TRIALS = 300
#: Three chunks per run (128 + 128 + 44 trials).
PER_TRIAL_ENSEMBLE_CHUNK = 128


def _per_trial_ensemble_cases() -> "dict[str, tuple]":
    """``{case: (experiment, backend)}``: Example 1, the corpus models and
    the special cases of :func:`_ensemble_cases`, once each."""
    cases: dict[str, tuple] = {}
    for case, (experiment, _trials, _chunk, backend) in _ensemble_cases().items():
        cases.setdefault(case.partition("@")[0], (experiment, backend))
    return cases


def per_trial_ensemble_digest(case: str, engine: str, cases: dict) -> str:
    """Digest of one seeded per-trial-engine ensemble run."""
    experiment, backend = cases[case]
    return _simulation_digest(
        experiment, engine, trials=PER_TRIAL_ENSEMBLE_TRIALS,
        seed=_seed(case, f"ensemble/{engine}"),
        chunk_size=PER_TRIAL_ENSEMBLE_CHUNK, backend=backend,
    )


def per_trial_ensemble_keys(cases: dict) -> "list[tuple[str, str]]":
    return [(case, engine) for case in cases for engine in PER_TRIAL_ENGINES]


#: Digests captured while each chunk still ran one ``simulator.run`` per trial.
PER_TRIAL_ENSEMBLE_EXPECTED: "dict[tuple[str, str], str]" = {
    ('example-1', 'direct'): '7066e280dd4d80af86930e8cb6d04e0abf218faf5d49c70311eddcaedc271765',
    ('example-1', 'first-reaction'): '22ef8447d7ed388689811121934e76907a6a7b78bac82fb55d74928a8f0f370c',
    ('example-1', 'next-reaction'): '9dd68af76e15cdd62a0520c04d37170b8089d1116034adea8107499efcb2c05b',
    ('birth-death', 'direct'): 'df5bda5c6efff067d1d17f80d53f0e6f003d8ff1be33b71cbeb172b929f48c36',
    ('birth-death', 'first-reaction'): '3e2ef541be02acc58e250f646c2df24f6085724cba0c828bf30d3abfcb7092bd',
    ('birth-death', 'next-reaction'): '8eb2590b6cc0e6ec7bb7d0246f79716ca0bf8167f0a1019150a2cd01d86fab25',
    ('cross-catalysis', 'direct'): '23d977b5f278f3cbf9008c42a17a8b05edcbb140fe1cc2b54bb8573dd15407ec',
    ('cross-catalysis', 'first-reaction'): '1e9c6c82e7c4379e3cdc889a9beed2840b072f30df8523210063d88664362d20',
    ('cross-catalysis', 'next-reaction'): '013a0330a6fefa3f2d68ae94892ee0040dd41b2cb7b7e26e6c5c0cbfd01da54b',
    ('dimerization', 'direct'): '37662d5335a276acdc1ac0bd1265ebf45d3853653c8f81a4577ffa1b5731c0be',
    ('dimerization', 'first-reaction'): 'ee454a22764e0efc29327323da29f6a67cf6b81ca9f0c784c89eedee8e62a2ee',
    ('dimerization', 'next-reaction'): '360c4253fa59c50cd84f82f8b64446fdce9820639f5342cfd512098b5d6f8c3b',
    ('lambda-decision', 'direct'): '0844d4722275653e4f94cd94e8892ce309fef63d75f24858ac7e97082104648d',
    ('lambda-decision', 'first-reaction'): '5f56a9ea21f13359886a511905b85a48e25ea95fb21c0c60a001163a9f928aeb',
    ('lambda-decision', 'next-reaction'): '9bf386c2b110ee773b02a50feeb7a508a999210d1f7ff2c2550121e0f15dd17d',
    ('lambda-moi2', 'direct'): '042fbb48ed7517ff452c651e6635e6222b3d4016f5d78665ec2a91be756d9f53',
    ('lambda-moi2', 'first-reaction'): 'a10d67be601d420e9f6dbb0e81873862ce26503093543e07a05ff6db569c50c5',
    ('lambda-moi2', 'next-reaction'): '09c9f6ec4fa740ff5fe29a9fe3b1c987b1a6500104a6bdff05175679c0987c10',
    ('polya-urn', 'direct'): 'bc5d4ae09707f13a518f4d1e00c42e2c702cf1e630ae24a0da0a3b06aabaf430',
    ('polya-urn', 'first-reaction'): '0fcdc8d4aee619ea82d31f2bfa29eb438f7f0e0c0f9db9a94259bea1a71d621a',
    ('polya-urn', 'next-reaction'): 'd794f6ede6d15d03200132737fdf957b5afef47d156c51a48675e537c70453ce',
    ('stiff-cascade', 'direct'): '25b4d2384cd489b138460ea7aa1b0f11da01eade9a1644bcc47952a5b664fce9',
    ('stiff-cascade', 'first-reaction'): '3465ebfdb98437df6e9b4eb7306a8b08ffb14448f952d57a7bcccce02a95de67',
    ('stiff-cascade', 'next-reaction'): '49e8e1d46212e5c44abce7434766cfc3cde7b043448eda429fc4c7131203934a',
    ('toggle-switch', 'direct'): 'd7a99435fa0f48ab008c69d5798d6e7efbc1633cc0474703870eb499aaee48a8',
    ('toggle-switch', 'first-reaction'): '4b970efa9272555911f22ce0c0856037f3b49ce29e633dbaaf0a5655d02e367c',
    ('toggle-switch', 'next-reaction'): '75d4ac561b1afd3679f84233cf3666ecaf9422d1469b525f76a2bf86b125bd18',
    ('triple-race', 'direct'): '2256ee5edc4b04860a75cffa711f1a91b2091716a6fd1a85a4ac98b20099c285',
    ('triple-race', 'first-reaction'): '5d48bdc90923f99df711b45ad0cd9bab9da9cc63123b156d2c2ba3de06a4469b',
    ('triple-race', 'next-reaction'): 'ca5e0dcc157ced4ba077b7d478fa322feef3c22cb68bbf457f7897e11ae87b8c',
    ('gen-k2-L1-x0-c0-n16-seed3', 'direct'): 'a87aa4445e018e1a28a239247c925040e0b33e23214fb2912f2ecb71cd852730',
    ('gen-k2-L1-x0-c0-n16-seed3', 'first-reaction'): 'dcf38297611984320e29c73bc576af4c0d53738bf7920624bcd6839e6a30cf21',
    ('gen-k2-L1-x0-c0-n16-seed3', 'next-reaction'): '51d74f5c9ad306e6a1e9d21627ec8bac100c70e6d0244fd86b82d01954d8a1d0',
    ('gen-k3-L2-x2-c0-n15-seed3', 'direct'): '3a506c28f11132011d03806dd6852e2398dc5ade50cf52658cf6e599699e392a',
    ('gen-k3-L2-x2-c0-n15-seed3', 'first-reaction'): '28db719ba0e3c1d14163c07bc344e23eeede9c661c277c228396b2614bfb1320',
    ('gen-k3-L2-x2-c0-n15-seed3', 'next-reaction'): '83fbb2bfad9f75245eb8968c0551c3dc5b5882c6e62823f4857e111a52896531',
    ('gen-k2-L3-x1-c1-n14-seed6', 'direct'): '2f05cdfe912e4f88b54383a34f3c61e6c91a0e128f95de4e951bd6cce8ac1b48',
    ('gen-k2-L3-x1-c1-n14-seed6', 'first-reaction'): 'f96a7061dc4a0e8d2b5bace83f903eb25c65b4644500cbd1b3be1506ab15acce',
    ('gen-k2-L3-x1-c1-n14-seed6', 'next-reaction'): 'd76e3cf5ee00701b024c754cfa6ac0548e88603d5c389cdc175e45743269a8a3',
    ('max-time', 'direct'): 'be68afe2e4c43e2914a35e02b535a92c3e4a0a87e70fe94e0f72b29f0d1ae0ba',
    ('max-time', 'first-reaction'): '328358a6306edfd9155f5c5d717610e5d60f20ed7b7a0d2c2a1640972728c9e6',
    ('max-time', 'next-reaction'): '8c5d318cc69696d08a0fd309954c05f74cf7f45827710a81cca2c3d6381a0b2e',
    ('max-steps', 'direct'): 'dc561cb7e2e8bda0abd88c239dbd370b3febc66982fed51df698d5967c92249d',
    ('max-steps', 'first-reaction'): '33b6e5454579759d964cd71d85e2a0927753eebd7cc4b7f6d22e99d4e6cfff38',
    ('max-steps', 'next-reaction'): 'f873409b704b6e9fa7fb0114812b5d5af4f6a95c398e2dc5e3376c536970711a',
    ('predicate', 'direct'): '337925ec444d40490cb00ca2c62e05438f5089dd978f90a92daf280509c43711',
    ('predicate', 'first-reaction'): 'd21ee55dea4502361ccba87b88c90c944fc7dd6541933796a710e6bcbb3797df',
    ('predicate', 'next-reaction'): '9e45cb73a1b9a6fa1b48bf88a02849df32cc689d97167d8ff481b7227e1a6c3e',
    ('all-condition', 'direct'): '3b4578096b850a31181edd85bad31f5d985f309e0a6ed3160792ae5e3d66af86',
    ('all-condition', 'first-reaction'): 'e4ba76cfcbb1bb0311625cee81f599559ae3cb12e2ae4aff5534dc2df2233e83',
    ('all-condition', 'next-reaction'): '3997bb3f27e86c30eabcb08b3c3b8b7ca7c81cce40a80298aca73e348b91dac2',
    ('stop-at-t0', 'direct'): 'c371049403a167f57136b8975d42d1fcecdeb6b776bb0d50d94eaaa77eb3f3e5',
    ('stop-at-t0', 'first-reaction'): 'c371049403a167f57136b8975d42d1fcecdeb6b776bb0d50d94eaaa77eb3f3e5',
    ('stop-at-t0', 'next-reaction'): 'c371049403a167f57136b8975d42d1fcecdeb6b776bb0d50d94eaaa77eb3f3e5',
    ('exhaustion', 'direct'): '48e2774ff338e17f61afa708547ee1bad7f04768e40e71966e88305f2cece4d1',
    ('exhaustion', 'first-reaction'): 'd9a1b73acec01d97a9bda6a2fa4bf93311785478c9740dea5813580c497631d7',
    ('exhaustion', 'next-reaction'): '399021b4f0ab82ac0b8c0cceaaf03c0bd32542438ff4f0c4f22f37d79852bc99',
    ('coefficients', 'direct'): 'ba27af9a102837fbf8539187872e4828aa90b5d015d8fdedf995d90bbfd77a7d',
    ('coefficients', 'first-reaction'): '5bce34826aad4f4c6fad5dfaaa5aefa40bcbe83a9054723a4fe823bdc8eeba8a',
    ('coefficients', 'next-reaction'): '15c6fd3b7970f26f01ab121879eaf62d99234fbbb2f6100811eb4c730d4b61e2',
}


# ---------------------------------------------------------------------------
# tau-leaping ensemble pins: seeded tau-leaping Experiment.simulate runs
# ---------------------------------------------------------------------------

TAU_ENSEMBLE_EPSILON = 0.03


def tau_ensemble_digest(case: str, cases: dict) -> str:
    """Digest of one seeded tau-leaping ensemble run (same chunks as above)."""
    experiment, _backend = cases[case]
    return _simulation_digest(
        experiment, "tau-leaping", trials=PER_TRIAL_ENSEMBLE_TRIALS,
        seed=_seed(case, "ensemble/tau-leaping"),
        chunk_size=PER_TRIAL_ENSEMBLE_CHUNK, backend="auto",
        engine_options=TauLeapOptions(epsilon=TAU_ENSEMBLE_EPSILON),
    )


#: Digests captured while each chunk still ran one ``simulator.run`` per
#: trial, except the two rows marked below.
TAU_ENSEMBLE_EXPECTED: "dict[str, str]" = {
    'example-1': '23ea73a56bab270750dd84abd2ddc6e4b564bb7d712c0a764b3f11e2e522d44d',
    'birth-death': 'e93881a853929b6f97f9e8f86ff854a4f87cfa529549c7c0c0d933db03b999e8',
    'cross-catalysis': '5356b3ef05b052fe9945bdd3200e6c8b689c1f2f4a919c679f84982958d64ee6',
    'dimerization': 'd7136f334f0bdb74df16ddcc51cd666cd1d62f8d93759317412e031453cd2192',
    'lambda-decision': '63d31471cdc023c7993f2d01e82831a33b0c6653bbb08767f7b0617cb501446d',
    'lambda-moi2': '6589c906be04e7ed04355ffbb453307731e722fe63e1a2511970e27694fdd843',
    'polya-urn': '4afa696a47b0debed8133616c325281966b55b82e7b2dfe718559b4251a556ca',
    'stiff-cascade': 'eb0028cf3e98d6bb19a5738a761ab1fb35ff6390f407977d2b52982e8c813f30',
    'toggle-switch': '08cd559315b1b1526a33a0bbb328fca43448c5cf7dd28a33a5960e42da4b2d69',
    'triple-race': '3c886f25a631b31eb0d0f81e1a51623c41c8c4267864cd56f52b47396ce2c34c',
    'gen-k2-L1-x0-c0-n16-seed3': '1dd3cc0ed068ae9c6ecb9645aa6c6c587cfd84510db622ff7d6bd4e001fe1713',
    'gen-k3-L2-x2-c0-n15-seed3': '3991bdfd36a5e3d592605fcce80a192d8968218ae7e907bc81fbf4dfd374be2a',
    'gen-k2-L3-x1-c1-n14-seed6': 'b3e8ea9d04b54d647a86e6b12b18f37333278310cb209711721059b7194aa629',
    'max-time': '9754283f9e7f35847cfc3b8d47565e6b3615f53583bbf1450f44363b99472b45',
    # Recaptured when the exact-step fallback began to count its firings
    # against max_steps: before, 144 of these trials ran past the cap of 15
    # (by up to 30 firings) and 174 of the coefficients case past 30.
    'max-steps': '1d784ccc45e8a87e1c5e0d295543ddfce036c22b2514299494126f2615ac8845',
    'predicate': '76387284363ad4be80dd8ca87fb157a2baa1a46e94a093293cb7dd056446a02b',
    'all-condition': '5a3f079b5197df2ce3a43ac60c9699ffd06bd9dd5854b70785a412b666968cdb',
    'stop-at-t0': 'c371049403a167f57136b8975d42d1fcecdeb6b776bb0d50d94eaaa77eb3f3e5',
    'exhaustion': 'b5492e4aeb6bedd6cd4fb68e87fde917773a04c3a43a3fc89be4619c9a2aa11b',
    'coefficients': '9031896564008d715e0b9496fa4e5137ffb1cf941bfc48fcf9468caf5deb094d',
}


@pytest.fixture(scope="module")
def models():
    return _models()


def test_every_model_and_engine_is_pinned(models):
    assert sorted(EXPECTED) == sorted(pin_keys(models))


@pytest.mark.parametrize("model,engine", sorted(EXPECTED))
def test_stream_pin(models, model, engine):
    assert run_digest(model, engine, models) == EXPECTED[(model, engine)]


@pytest.fixture(scope="module")
def ensemble_cases():
    return _ensemble_cases()


def test_every_ensemble_case_is_pinned(ensemble_cases):
    assert sorted(ENSEMBLE_EXPECTED) == sorted(ensemble_cases)


@pytest.mark.parametrize("case", sorted(ENSEMBLE_EXPECTED))
def test_ensemble_pin(ensemble_cases, case):
    assert ensemble_digest(case, ensemble_cases) == ENSEMBLE_EXPECTED[case]


@pytest.fixture(scope="module")
def per_trial_ensemble_cases():
    return _per_trial_ensemble_cases()


def test_every_per_trial_ensemble_case_is_pinned(per_trial_ensemble_cases):
    assert sorted(PER_TRIAL_ENSEMBLE_EXPECTED) == sorted(
        per_trial_ensemble_keys(per_trial_ensemble_cases)
    )


@pytest.mark.parametrize("case,engine", sorted(PER_TRIAL_ENSEMBLE_EXPECTED))
def test_per_trial_ensemble_pin(per_trial_ensemble_cases, case, engine):
    digest = per_trial_ensemble_digest(case, engine, per_trial_ensemble_cases)
    assert digest == PER_TRIAL_ENSEMBLE_EXPECTED[(case, engine)]


def test_every_tau_ensemble_case_is_pinned(per_trial_ensemble_cases):
    assert sorted(TAU_ENSEMBLE_EXPECTED) == sorted(per_trial_ensemble_cases)


@pytest.mark.parametrize("case", sorted(TAU_ENSEMBLE_EXPECTED))
def test_tau_ensemble_pin(per_trial_ensemble_cases, case):
    digest = tau_ensemble_digest(case, per_trial_ensemble_cases)
    assert digest == TAU_ENSEMBLE_EXPECTED[case]


# ---------------------------------------------------------------------------
# the direct pins under CPython 3.12's sum()
# ---------------------------------------------------------------------------

DIRECT_PINS = sorted(key for key in EXPECTED if key[1] == "direct")
DIRECT_ENSEMBLE_PINS = sorted(key for key in PER_TRIAL_ENSEMBLE_EXPECTED if key[1] == "direct")


@pytest.fixture
def compensated_builtin_sum(monkeypatch):
    """The kernel modules see CPython 3.12's compensated ``sum()``."""
    from compensated_sum import compensated_sum

    from repro.sim.kernels import numba_backend, numpy_backend

    for module in (numpy_backend, numba_backend):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)


@pytest.mark.parametrize("model,engine", DIRECT_PINS)
def test_direct_pin_under_compensated_sum(models, compensated_builtin_sum, model, engine):
    # The direct kernels add propensities left to right themselves, so the
    # pins hold on every Python version.
    assert run_digest(model, engine, models) == EXPECTED[(model, engine)]


@pytest.mark.parametrize("case,engine", DIRECT_ENSEMBLE_PINS)
def test_direct_ensemble_pin_under_compensated_sum(
    per_trial_ensemble_cases, compensated_builtin_sum, case, engine
):
    digest = per_trial_ensemble_digest(case, engine, per_trial_ensemble_cases)
    assert digest == PER_TRIAL_ENSEMBLE_EXPECTED[(case, engine)]


if __name__ == "__main__":
    all_models = _models()
    for key in pin_keys(all_models):
        print(f"    {key!r}: {run_digest(*key, all_models)!r},")
    all_cases = _ensemble_cases()
    for case in all_cases:
        print(f"    {case!r}: {ensemble_digest(case, all_cases)!r},")
    per_trial_cases = _per_trial_ensemble_cases()
    for key in per_trial_ensemble_keys(per_trial_cases):
        print(f"    {key!r}: {per_trial_ensemble_digest(*key, per_trial_cases)!r},")
    for case in per_trial_cases:
        print(f"    {case!r}: {tau_ensemble_digest(case, per_trial_cases)!r},")
