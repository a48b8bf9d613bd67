"""Acceptance suite: one test per release criterion.

Each test prints a single "criterion N: PASS" line once its assertions
hold (run with -s to watch them); every numeric check is exact unless a
wall-clock budget is stated in the criterion itself. Run via

    pytest tests/test_acceptance.py -v
"""

import random
import time

import pytest

from chainforge import SchemeParams, optimal_partition, setup, seeded_entropy
from chainforge.brute import brute_minimum
from chainforge.ces import correctness_audit
from chainforge.cli import main
from chainforge.flow import (
    build_flow_network,
    eliminate_lower_bounds,
    flow_cost,
    is_feasible,
    min_cost_flow,
    restore_lower_bounds,
)
from chainforge.formats import policy_text
from chainforge.gen import random_policy
from chainforge.policy import (
    augment_with_maximum,
    bundle_labels,
    derivation_tree,
    issued_secrets,
    issued_secrets_via_bottoms,
    issued_secrets_via_tree,
    secret_holders,
)

from conftest import enumerate_min_cost, random_chain_partition, random_policies
from test_cli import DEMO, PART_A, PART_B, PART_C, lines_of


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.policy"
    path.write_text(DEMO)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_criterion_1_reference_partition_metrics(capsys, demo_file, tmp_path):
    """evaluate reproduces the known metrics of the three reference
    partitions exactly, in under a second."""
    expectations = [
        (PART_A, "4", "20", "b e g h"),
        (PART_B, "3", "17", None),
        (PART_C, "2", "13", "g h"),
    ]
    start = time.perf_counter()
    for text, kmax, total, phi_h in expectations:
        part = tmp_path / "ref.partition"
        part.write_text(text)
        code, out = run(capsys, "evaluate", demo_file, str(part), "--phi", "h")
        assert code == 0
        got = lines_of(out)
        assert got["kmax"] == kmax
        assert got["K"] == total
        if phi_h is not None:
            assert got["phi(h)"] == phi_h
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1: PASS - reference partition metrics exact ({elapsed:.2f}s)")


def test_criterion_2_bottoms_report(capsys, demo_file, tmp_path):
    """The widest reference partition's bottoms report: a, c, d, f with
    up-set sizes 8, 6, 4, 2 summing to 20."""
    part = tmp_path / "ref.partition"
    part.write_text(PART_A)
    code, out = run(capsys, "evaluate", demo_file, str(part))
    assert code == 0
    got = lines_of(out)
    assert got["bottom a"] == "size 8 weight 8"
    assert got["bottom c"] == "size 6 weight 6"
    assert got["bottom d"] == "size 4 weight 4"
    assert got["bottom f"] == "size 2 weight 2"
    assert got["bottoms_total"] == "size 20 weight 20"
    print("criterion 2: PASS - bottoms report lists a,c,d,f with sizes 8,6,4,2 (sum 20)")


def test_criterion_3_end_to_end_optimum(capsys, demo_file, demo_unit):
    """partition finds the certified global optimum of the demo policy."""
    start = time.perf_counter()
    code, out = run(capsys, "partition", demo_file)
    elapsed = time.perf_counter() - start
    assert code == 0
    got = lines_of(out)
    assert got["khat"] == "13"
    assert got["chains"] == "2"
    assert got["kmax"] == "2"
    assert got["flow_cost"] == "11"
    assert elapsed < 1.0
    report = brute_minimum(demo_unit)
    assert report.min_khat == 13
    print(f"criterion 3: PASS - optimum khat 13 certified by exhaustive scan ({elapsed:.2f}s)")


def test_criterion_4_oracle_equivalence():
    """Over 500 seeded random posets (|X| <= 7, counts 0..5) the optimizer
    matches the exhaustive minimum, returns exactly width chains, and
    never exceeds width secrets per user."""
    start = time.perf_counter()
    checked = 0
    for policy in random_policies(500, 7, seed=1000):
        result = optimal_partition(policy)
        report = brute_minimum(policy)
        assert result.khat == report.min_khat, policy_text(policy)
        assert len(result.partition.chains) == policy.poset.width()
        assert result.kmax <= result.width
        assert report.min_chain_count_at_min == policy.poset.width()
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 500
    assert elapsed < 60.0
    print(f"criterion 4: PASS - {checked} posets, optimizer == oracle ({elapsed:.1f}s)")


def test_criterion_5_identity_suite():
    """Over 1000 seeded random (poset, valid partition) pairs (|X| <= 9)
    the three issued-secret formulas agree, and bundle membership is
    exactly characterized by the holders of each tree link."""
    rng = random.Random(2000)
    pairs = 0
    for policy in random_policies(1000, 8, seed=2000):
        policy, top, _ = augment_with_maximum(policy)  # |X| <= 9 after augmenting
        p = policy.poset
        pi = random_chain_partition(p, rng)

        direct = issued_secrets(policy, pi)
        via_tree = issued_secrets_via_tree(policy, pi)
        via_bottoms = issued_secrets_via_bottoms(policy, pi)
        assert direct == via_tree == via_bottoms

        tree = derivation_tree(policy, pi)
        bundles = {x: set(bundle_labels(policy, x, pi)) for x in p.elements}
        for child, parent in tree.parent.items():
            held = set(secret_holders(policy, parent, child))
            for x in p.elements:
                if x == top:
                    continue
                assert (child in bundles[x]) == (x in held)
        pairs += 1
    assert pairs >= 1000
    print(f"criterion 5: PASS - {pairs} pairs, all identities exact")


def test_criterion_6_flow_validity():
    """Every solver output is feasible and 0/1-integral; on every network
    with at most 12 arcs it matches exhaustive enumeration."""
    solved = enumerated = 0
    for policy in random_policies(150, 6, seed=3000):
        policy, _, _ = augment_with_maximum(policy)
        net = build_flow_network(policy)
        reduced, offset = eliminate_lower_bounds(net)
        f_reduced = min_cost_flow(reduced)
        f = restore_lower_bounds(net, f_reduced)
        assert is_feasible(net, f)
        assert all(v in (0, 1) for v in f.values())
        assert flow_cost(net, f) == flow_cost(reduced, f_reduced) + offset
        solved += 1
        if len(net.arcs) <= 12:
            assert flow_cost(net, f) == enumerate_min_cost(net)
            enumerated += 1
    assert enumerated > 0
    print(f"criterion 6: PASS - {solved} solves feasible/integral, "
          f"{enumerated} matched exhaustive enumeration")


def _ces_corpus():
    # 100 instances, up to 10 labels each, optimized partition per instance
    for i, policy in enumerate(random_policies(100, 10, seed=4000)):
        result = optimal_partition(policy)
        params = SchemeParams()
        material = setup(policy, result.partition, params, seeded_entropy(bytes([i % 256])))
        yield policy, result.partition, material


def test_criterion_7_ces_correctness():
    """On a 100-instance corpus, derivation succeeds with the exported key
    exactly for authorized pairs and is refused otherwise."""
    audited = 0
    for policy, pi, material in _ces_corpus():
        assert correctness_audit(policy, pi, material)
        audited += 1
    assert audited == 100
    print(f"criterion 7: PASS - correctness audit clean on {audited} instances")


def test_criterion_8_desk_scale_runtime(capsys, tmp_path):
    """A 100-element policy of width <= 10 is optimized in under 5 s."""
    policy = random_policy(100, 0.2, seed=1)
    assert policy.poset.width() <= 10
    path = tmp_path / "large.policy"
    path.write_text(policy_text(policy))
    start = time.perf_counter()
    code, out = run(capsys, "partition", str(path))
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 5.0
    got = lines_of(out)
    assert got["width"] == str(policy.poset.width())
    print(f"criterion 8: PASS - 100 elements, width {got['width']}, {elapsed:.2f}s")


def test_criterion_9_no_shortcut_surrogate():
    """The computational key-indistinguishability claim is out of scope; the
    tested surrogate is structural: following derivation edges from any
    bundle reaches exactly the secrets at or below the owner's label."""
    instances = 0
    for policy, pi, material in _ces_corpus():
        p = policy.poset
        step = {}  # the only derivation edges: one chain step down per label
        for chain in pi.chains:
            for upper, lower in zip(chain, chain[1:]):
                step[upper] = lower
        for x in p.elements:
            reachable = set()
            stack = list(bundle_labels(policy, x, pi))
            while stack:
                z = stack.pop()
                if z in reachable:
                    continue
                reachable.add(z)
                if z in step:
                    stack.append(step[z])
            assert reachable == set(p.down_set(x))
        instances += 1
    assert instances == 100
    print(f"criterion 9: PASS - structural no-shortcut property on {instances} instances "
          "(computational indistinguishability intentionally untested)")
