import pytest

from chainforge import Policy, Poset
from chainforge.errors import InvalidPartition, ParseError, RedundantCover, UnknownLabel
from chainforge.formats import parse_partition, parse_policy, partition_text, policy_text

from conftest import DEMO_COVERS, DEMO_ELEMENTS, random_policies

# legal labels that sit next to the format's reserved tokens
ODD_LABELS = ("users", "covers", "elements", "a:", ":", "users:x", "x-y", "é", "0", "a/b")

DEMO_TEXT = """\
# demo policy
elements: a b c d e f g h
covers: b>a c>a d>b d>c e>c
        f>d g>d g>e h>f h>g
users: a=1 b=1 c=1 d=1 e=1 f=1 g=1 h=1
"""


class TestPolicyParsing:
    def test_demo_round_trip(self):
        policy = parse_policy(DEMO_TEXT)
        assert policy.poset.elements == DEMO_ELEMENTS
        assert set(policy.poset.covers) == set(DEMO_COVERS)
        assert all(policy.count(x) == 1 for x in DEMO_ELEMENTS)
        assert parse_policy(policy_text(policy)).poset.covers == policy.poset.covers

    def test_round_trip_on_random_policies(self):
        cases = []
        for policy in random_policies(40, 12, seed=311):
            cases.append(policy)
            # the same order with its first labels renamed to ODD_LABELS
            p = policy.poset
            names = {x: ODD_LABELS[i] if i < len(ODD_LABELS) else x
                     for i, x in enumerate(p.elements)}
            cases.append(Policy(
                Poset([names[x] for x in p.elements],
                      [(names[c], names[q]) for c, q in p.covers]),
                {names[x]: policy.count(x) for x in p.elements},
            ))
        for policy in cases:
            back = parse_policy(policy_text(policy))
            assert back.poset.elements == policy.poset.elements
            assert back.poset.covers == policy.poset.covers
            assert all(back.count(x) == policy.count(x) for x in policy.poset.elements)

    def test_sections_may_interleave_lines_and_comments(self):
        policy = parse_policy("elements:\n  x  # one label\n  y\ncovers: y>x\n")
        assert policy.poset.elements == ("x", "y")

    def test_users_default_to_zero(self):
        policy = parse_policy("elements: x y\ncovers: y>x\nusers: y=3\n")
        assert policy.count("x") == 0
        assert policy.count("y") == 3

    def test_missing_elements_section(self):
        with pytest.raises(ParseError):
            parse_policy("covers: y>x\n")

    def test_token_before_section(self):
        with pytest.raises(ParseError) as exc:
            parse_policy("x y\nelements: x y\n")
        assert exc.value.line == 1

    def test_bad_cover_token(self):
        with pytest.raises(ParseError) as exc:
            parse_policy("elements: x y\ncovers: y-x\n")
        assert exc.value.line == 2

    def test_bad_count_token(self):
        with pytest.raises(ParseError):
            parse_policy("elements: x\nusers: x=lots\n")
        with pytest.raises(ParseError):
            parse_policy("elements: x\nusers: x=-2\n")

    def test_empty_elements_section(self):
        # the section's tokens carry line numbers, an empty one has none
        with pytest.raises(ParseError, match="'elements:' section is empty") as exc:
            parse_policy("# nothing declared\nelements:\ncovers:\n")
        assert exc.value.line is None

    def test_cover_without_child(self):
        with pytest.raises(ParseError, match="'a>' must be parent>child") as exc:
            parse_policy("elements: a b\ncovers: b>a\n  a>\n")
        assert exc.value.line == 3

    def test_count_token_with_two_equals(self):
        with pytest.raises(ParseError, match="'a=1=2' must be label=count") as exc:
            parse_policy("elements: a\n\nusers: a=1=2\n")
        assert exc.value.line == 3

    def test_duplicate_user_count(self):
        with pytest.raises(ParseError, match="duplicate user count for 'a'") as exc:
            parse_policy("elements: a b\nusers: a=1 b=2\n  a=1\n")
        assert exc.value.line == 3

    def test_duplicate_section(self):
        with pytest.raises(ParseError):
            parse_policy("elements: x\nelements: y\n")

    def test_unknown_label_in_users(self):
        with pytest.raises(UnknownLabel):
            parse_policy("elements: x\nusers: z=1\n")

    def test_semantic_errors_surface(self):
        with pytest.raises(RedundantCover):
            parse_policy("elements: a b c\ncovers: b>a c>b c>a\n")


class TestPartitionParsing:
    def test_round_trip(self, demo_poset, part_c):
        text = partition_text(part_c)
        assert text == "g>e>c>a\nh>f>d>b\n"
        assert parse_partition(text, demo_poset) == part_c

    def test_comments_and_blanks(self, demo_poset, part_c):
        text = "# two chains\n\ng>e>c>a\nh>f>d>b  # second\n"
        assert parse_partition(text, demo_poset) == part_c

    def test_misordered_chain_rejected(self, demo_poset):
        with pytest.raises(ParseError) as exc:
            parse_partition("a>c>e>g\nh>f>d>b\n", demo_poset)
        assert exc.value.line == 1

    def test_invalid_partition_rejected(self, demo_poset):
        with pytest.raises(InvalidPartition):
            parse_partition("g>e>c>a\n", demo_poset)

    def test_empty_chain_line(self, demo_poset):
        with pytest.raises(ParseError, match="empty chain") as exc:
            parse_partition("g>e>c>a\n>\nh>f>d>b\n", demo_poset)
        assert exc.value.line == 2

    @pytest.mark.parametrize("line", [">>", ">>>"])
    def test_only_separators_is_an_empty_chain(self, demo_poset, line):
        with pytest.raises(ParseError, match="^line 1: empty chain$"):
            parse_partition(line + "\n", demo_poset)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("h>g>e>c>a\nf>>d>b\n", 2),
            (">h>g>e>c>a\nf>d>b\n", 1),
            ("h>g>e>c>a\nf>d>b>\n", 2),
        ],
    )
    def test_empty_label_rejected(self, demo_poset, text, line):
        with pytest.raises(ParseError, match="empty label in chain") as exc:
            parse_partition(text, demo_poset)
        assert exc.value.line == line

    def test_empty_file_rejected(self, demo_poset):
        with pytest.raises(ParseError):
            parse_partition("# nothing\n", demo_poset)
