import dataclasses

import pytest

from chainforge import (
    ChainPartition,
    Policy,
    Poset,
    SchemeParams,
    derive,
    issue_bundle,
    optimal_partition,
    seeded_entropy,
    setup,
)
from chainforge import ces
from chainforge.ces import (
    bundle_from_text,
    bundle_to_text,
    correctness_audit,
    export_material,
)
from chainforge.errors import EntropyFailure, NotAuthorized, ParseError, UnknownLabel
from chainforge.policy import bundle_labels, issued_secrets

from conftest import DEMO_ELEMENTS, random_policies


@pytest.fixture(scope="module")
def params():
    return SchemeParams()


@pytest.fixture(scope="module")
def material(demo_unit, part_c, params):
    return setup(demo_unit, part_c, params, seeded_entropy(b"\x42" * 8))


class TestSchemeParams:
    def test_defaults(self, params):
        assert params.secret_size == 32

    def test_valid_sizes(self):
        assert SchemeParams(128).secret_size == 16
        assert SchemeParams(512, "sha512").secret_size == 64

    def test_rejects_odd_bits(self):
        with pytest.raises(ValueError):
            SchemeParams(192)

    def test_rejects_hash_shorter_than_secret(self):
        with pytest.raises(ValueError):
            SchemeParams(512, "sha256")

    def test_f_and_h_are_domain_separated(self, params):
        s = bytes(32)
        assert params.apply_f(s) != params.apply_h(s)
        assert len(params.apply_f(s)) == 32


class TestSetup:
    def test_chain_recurrence(self, demo_unit, part_c, material, params):
        for chain in part_c.chains:
            for upper, lower in zip(chain, chain[1:]):
                assert material.secrets[lower] == params.apply_f(material.secrets[upper])

    def test_keys_are_hash_of_secrets(self, material, params):
        for x, secret in material.secrets.items():
            assert material.keys[x] == params.apply_h(secret)

    def test_counts_and_freshness(self, demo_unit, part_c, params):
        draws = []

        def entropy(n):
            draws.append(n)
            return bytes([len(draws)]) * n

        material = setup(demo_unit, part_c, params, entropy)
        assert len(material.secrets) == 8
        assert len(material.keys) == 8
        assert draws == [32, 32]  # one fresh secret per chain

    def test_no_public_information(self, material):
        assert material.public_info == {}

    def test_deterministic_under_same_entropy(self, demo_unit, part_c, params):
        a = setup(demo_unit, part_c, params, seeded_entropy(b"seed"))
        b = setup(demo_unit, part_c, params, seeded_entropy(b"seed"))
        assert a.secrets == b.secrets and a.keys == b.keys

    def test_entropy_failure(self, demo_unit, part_c, params):
        with pytest.raises(EntropyFailure):
            setup(demo_unit, part_c, params, lambda n: b"\x00" * (n - 1))


class TestBundles:
    def test_bundle_domain_is_bundle_labels(self, demo_unit, part_c, material):
        for x in DEMO_ELEMENTS:
            bundle = issue_bundle(material, demo_unit, x)
            assert set(bundle.secrets) == set(bundle_labels(demo_unit, x, part_c))

    def test_top_label_bundle_sizes(self, demo_unit, part_a, part_c, material, params):
        assert len(issue_bundle(material, demo_unit, "h").secrets) == 2
        mat_a = setup(demo_unit, part_a, params, seeded_entropy(b"a"))
        assert set(issue_bundle(mat_a, demo_unit, "h").secrets) == {"b", "e", "g", "h"}

    def test_weighted_issue_total(self):
        for policy in random_policies(15, 7, seed=431):
            res = optimal_partition(policy)
            params = SchemeParams()
            material = setup(policy, res.partition, params, seeded_entropy(b"w"))
            total = sum(
                policy.count(x) * len(issue_bundle(material, policy, x).secrets)
                for x in policy.poset.elements
            )
            assert total == issued_secrets(policy, res.partition)

    def test_unknown_label(self, demo_unit, material):
        with pytest.raises(UnknownLabel):
            issue_bundle(material, demo_unit, "z")


class TestDerive:
    def test_own_key_no_chain_walk(self, demo_unit, part_c, material, params):
        bundle = issue_bundle(material, demo_unit, "h")
        assert derive(demo_unit, part_c, bundle, "h", params) == material.keys["h"]

    def test_walk_down_the_chain(self, demo_unit, part_c, material, params):
        bundle = issue_bundle(material, demo_unit, "h")
        key = derive(demo_unit, part_c, bundle, "a", params)
        assert key == material.keys["a"]
        # manual recomputation: three F steps down from g, then H
        s = bundle.secrets["g"]
        for _ in range(3):
            s = params.apply_f(s)
        assert key == params.apply_h(s)

    def test_f_application_count_is_chain_distance(self, demo_unit, part_c, material):
        calls = {"f": 0}

        class Counting(SchemeParams):
            def apply_f(self, secret):
                calls["f"] += 1
                return super().apply_f(secret)

        bundle = issue_bundle(material, demo_unit, "h")
        derive(demo_unit, part_c, bundle, "a", Counting())
        assert calls["f"] == 3  # g > e > c > a

    def test_not_authorized(self, demo_unit, part_c, material, params):
        bundle = issue_bundle(material, demo_unit, "f")
        with pytest.raises(NotAuthorized):
            derive(demo_unit, part_c, bundle, "e", params)

    def test_bundle_without_a_covering_secret(self, demo_unit, part_c, material, params):
        bundle = issue_bundle(material, demo_unit, "h")
        partial = dataclasses.replace(bundle, secrets={"g": bundle.secrets["g"]})
        with pytest.raises(NotAuthorized, match="bundle for 'h' holds no secret covering 'b'"):
            derive(demo_unit, part_c, partial, "b", params)
        assert derive(demo_unit, part_c, partial, "a", params) == material.keys["a"]

    def test_wrong_size_secret_rejected(self, demo_unit, part_c, material, params):
        bundle = issue_bundle(material, demo_unit, "h")
        text = bundle_to_text(bundle).replace(bundle.secrets["g"].hex(), "ab")
        with pytest.raises(ParseError):
            derive(demo_unit, part_c, bundle_from_text(text), "a", params)
        with pytest.raises(ParseError):
            derive(demo_unit, part_c, bundle, "a", SchemeParams(security_bits=128))

    def test_unknown_bundle_label_rejected(self, demo_unit, part_c, material, params):
        bundle = issue_bundle(material, demo_unit, "h")
        stray = dataclasses.replace(bundle, secrets={**bundle.secrets, "zz": b"\0" * 32})
        with pytest.raises(UnknownLabel):
            derive(demo_unit, part_c, stray, "a", params)

    def test_unknown_target(self, demo_unit, part_c, material, params):
        bundle = issue_bundle(material, demo_unit, "h")
        with pytest.raises(UnknownLabel):
            derive(demo_unit, part_c, bundle, "z", params)

    def test_all_authorized_pairs_on_corpus(self):
        for policy in random_policies(10, 8, seed=433):
            res = optimal_partition(policy)
            params = SchemeParams()
            material = setup(policy, res.partition, params, seeded_entropy(b"c"))
            p = policy.poset
            for x in p.elements:
                bundle = issue_bundle(material, policy, x)
                for y in p.down_set(x):
                    assert derive(policy, res.partition, bundle, y, params) == material.keys[y]


class TestAudit:
    def test_demo_partition_passes(self, demo_unit, part_c, material):
        assert correctness_audit(demo_unit, part_c, material)

    def test_singleton(self):
        p = Poset(["r"])
        pol = Policy.unit(p)
        pi = ChainPartition.from_blocks(p, [["r"]])
        params = SchemeParams()
        material = setup(pol, pi, params, seeded_entropy(b"s"))
        assert correctness_audit(pol, pi, material)

    def test_tampered_secret_detected(self, demo_unit, part_c, material):
        secrets = dict(material.secrets)
        secrets["e"] = bytes(32)  # not a chain top; breaks the recurrence
        broken = dataclasses.replace(material, secrets=secrets)
        assert not correctness_audit(demo_unit, part_c, broken)

    def test_missing_secret_detected(self, demo_unit, part_c, material):
        secrets = {z: s for z, s in material.secrets.items() if z != "h"}
        broken = dataclasses.replace(material, secrets=secrets)
        with pytest.raises(KeyError):
            issue_bundle(broken, demo_unit, "h")
        assert not correctness_audit(demo_unit, part_c, broken)

    def test_short_secrets_detected(self, demo_unit, part_c, material):
        secrets = {z: s[:16] for z, s in material.secrets.items()}
        broken = dataclasses.replace(material, secrets=secrets)
        with pytest.raises(ParseError):
            derive(demo_unit, part_c, issue_bundle(broken, demo_unit, "h"), "a")
        assert not correctness_audit(demo_unit, part_c, broken)

    @pytest.mark.parametrize("refusal", ["raises ValueError", "returns a key"])
    def test_wrong_refusal_detected(self, demo_unit, part_c, material, monkeypatch, refusal):
        real = ces.derive

        def derive_refusing_wrongly(policy, pi, bundle, y, params):
            if policy.poset.leq(y, bundle.label):
                return real(policy, pi, bundle, y, params)
            if refusal == "raises ValueError":
                raise ValueError("refused")
            return material.keys[y]

        monkeypatch.setattr(ces, "derive", derive_refusing_wrongly)
        assert not correctness_audit(demo_unit, part_c, material)


class TestNoShortcutStructure:
    def test_reachable_secrets_stay_below_owner(self):
        # the only derivation edges are chain steps; from any bundle the
        # reachable sigma values must sit inside the owner's down-set
        for policy in random_policies(15, 8, seed=439):
            res = optimal_partition(policy)
            p = policy.poset
            steps = {}  # label -> its chain child
            for chain in res.partition.chains:
                for upper, lower in zip(chain, chain[1:]):
                    steps[upper] = lower
            for x in p.elements:
                reachable = set()
                stack = list(bundle_labels(policy, x, res.partition))
                while stack:
                    z = stack.pop()
                    if z in reachable:
                        continue
                    reachable.add(z)
                    if z in steps:
                        stack.append(steps[z])
                assert reachable <= set(p.down_set(x))
                assert reachable == set(p.down_set(x))


class TestSerialization:
    def test_export_keys_only_by_default(self, material):
        text = export_material(material)
        lines = text.strip().splitlines()
        assert len(lines) == 8
        assert all(ln.split()[1] == "key" for ln in lines)

    def test_export_secrets_need_explicit_flag(self, material):
        text = export_material(material, include_secrets=True)
        lines = text.strip().splitlines()
        assert len(lines) == 16
        kinds = {ln.split()[1] for ln in lines}
        assert kinds == {"key", "secret"}

    def test_export_line_shape(self, material, params):
        for ln in export_material(material, include_secrets=True).strip().splitlines():
            label, kind, hexval = ln.split()
            assert label in DEMO_ELEMENTS
            assert kind in ("key", "secret")
            assert len(hexval) == 2 * params.secret_size
            assert hexval == hexval.lower()
            bytes.fromhex(hexval)

    def test_bundle_round_trip(self, demo_unit, material):
        bundle = issue_bundle(material, demo_unit, "h")
        again = bundle_from_text(bundle_to_text(bundle))
        assert again == bundle

    def test_bundle_text_rejects_garbage(self):
        with pytest.raises(ValueError):
            bundle_from_text("no header\n")
        with pytest.raises(ValueError):
            bundle_from_text("bundle h\ng secret zz\n")

    def test_bundle_text_rejects_a_line_without_three_fields(self):
        with pytest.raises(ValueError, match=r"^bad bundle line: 'foo bar'$"):
            bundle_from_text("bundle h\nfoo bar\n")
        with pytest.raises(ValueError, match=r"^bad bundle line: 'g key 00'$"):
            bundle_from_text("bundle h\ng key 00\n")

    def test_bundle_text_rejects_second_secret_for_a_label(self, demo_unit, material):
        text = bundle_to_text(issue_bundle(material, demo_unit, "h"))
        with pytest.raises(ValueError, match="'g'"):
            bundle_from_text(text + "g secret " + "00" * 32 + "\n")
