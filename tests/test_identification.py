import random

import pytest

from teleo.errors import BindingError, ComparisonError, DatasetError, TeleoError
from teleo.identification import (
    Dataset,
    check_dependence,
    check_support,
    load_dataset,
    rank_hypotheses,
    summarize_ranking,
)
from teleo.intervention import do_surgery
from teleo.model import IndependenceStatement
from teleo.teleology import build_final_model, goal

from support import chain_scm, m1_scm

WARM_DATA = "W,H,T,B,count\n1,0,1,0,5\n0,1,1,1,5\n"


@pytest.fixture(scope="module")
def scm():
    return m1_scm()


@pytest.fixture(scope="module")
def room_star(scm):
    return do_surgery(scm, "H")


@pytest.fixture(scope="module")
def finals(room_star):
    return [
        build_final_model(room_star, ("T",), goal("T", "=", 1), "warm"),
        build_final_model(room_star, ("T",), goal("T", "<", 2), "mild"),
        build_final_model(room_star, ("T",), goal("T", ">", 0), "notcold"),
        build_final_model(room_star, ("B",), goal("B", "=", 0), "cheap"),
        build_final_model(room_star, ("B",), goal("B", "=", 1), "costly"),
    ]


class TestLoadDataset:
    def test_duplicate_rows_aggregate(self, scm):
        text = "W,H,T,B\n" + "0,1,1,1\n" * 3 + "1,0,1,0\n" * 2
        d = load_dataset(text, scm)
        assert d.rows == (((0, 1, 1, 1), 3), ((1, 0, 1, 0), 2))
        assert d.total == 5

    def test_count_column(self, scm):
        d = load_dataset(WARM_DATA, scm)
        assert d.total == 10
        assert len(d.rows) == 2

    def test_columns_reordered_to_declaration_order(self, scm):
        d = load_dataset("T,B,W,H\n2,1,1,1\n", scm)
        assert d.columns == ("W", "H", "T", "B")
        assert d.rows == (((1, 1, 2, 1), 1),)

    def test_comments_and_blank_lines(self, scm):
        text = "# survey\nW,H,T,B\n\n0,0,0,0  # cold day\n"
        assert load_dataset(text, scm).total == 1

    def test_empty_body_rejected(self, scm):
        with pytest.raises(DatasetError, match="no observation rows"):
            load_dataset("W,H,T,B\n", scm)

    def test_out_of_domain_value_names_variable_and_line(self, scm):
        with pytest.raises(DatasetError, match=r"line 2.*T") as exc:
            load_dataset("W,H,T,B\n0,1,5,1\n", scm)
        assert exc.value.line == 2

    def test_unknown_column(self, scm):
        with pytest.raises(DatasetError, match="unknown variable 'Q'"):
            load_dataset("W,H,T,Q\n0,0,0,0\n", scm)

    def test_missing_column(self, scm):
        with pytest.raises(DatasetError, match="missing B"):
            load_dataset("W,H,T\n0,0,0\n", scm)

    def test_malformed_row_width(self, scm):
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset("W,H,T,B\n0,1\n", scm)

    def test_non_integer_field(self, scm):
        with pytest.raises(DatasetError, match="non-integer"):
            load_dataset("W,H,T,B\n0,one,0,0\n", scm)

    @pytest.mark.parametrize(
        "row",
        ["\u0661,0,1,0", "0_1,0,1,0", "+1,0,1,0", "-,0,1,0", "1.0,0,1,0"],
        ids=["arabic-indic-digit", "underscore", "plus-sign", "lone-minus", "decimal"],
    )
    def test_values_are_plain_ascii_integers(self, scm, row):
        with pytest.raises(DatasetError, match="line 2: non-integer") as exc:
            load_dataset(f"W,H,T,B\n{row}\n", scm)
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "count",
        ["+5", "\u0665", "1_0", "5\u00b2"],
        ids=["plus-sign", "arabic-indic-digit", "underscore", "superscript"],
    )
    def test_counts_are_plain_ascii_integers(self, scm, count):
        with pytest.raises(DatasetError, match="line 3: non-integer"):
            load_dataset(f"W,H,T,B,count\n1,0,1,0,1\n0,1,1,1,{count}\n", scm)

    def test_non_positive_count(self, scm):
        with pytest.raises(DatasetError, match="positive"):
            load_dataset("W,H,T,B,count\n0,0,0,0,0\n", scm)


class TestCheckSupport:
    def test_matching_data_has_no_violations(self, scm, finals):
        d = load_dataset(WARM_DATA, scm)
        v = check_support(finals[0], d)
        assert v.support_compatible and v.violating_rows.rows == ()

    def test_heating_on_during_a_sunny_day_refutes_warm(self, scm, finals):
        d = load_dataset("W,H,T,B\n1,0,1,0\n1,1,2,1\n", scm)
        v = check_support(finals[0], d)
        assert not v.support_compatible
        assert list(v.violating_rows.rows) == [(1, 1, 2, 1)]

    def test_expensive_row_refutes_cheap(self, scm, finals):
        d = load_dataset("W,H,T,B\n0,1,1,1\n", scm)
        v = check_support(finals[3], d)
        assert list(v.violating_rows.rows) == [(0, 1, 1, 1)]

    def test_unbound_dataset(self, finals):
        d = Dataset(("W", "H"), (((0, 0), 1),))
        with pytest.raises(BindingError):
            check_support(finals[0], d)


class TestCheckDependence:
    def test_expected_and_observed_dependence_agree(self, scm, finals):
        d = load_dataset(WARM_DATA, scm)
        c = check_dependence(finals[0], d, IndependenceStatement("W", "H"))
        assert not c.expected_independent
        assert not c.observed_independent
        assert c.agree

    def test_constant_column_is_independent(self, scm, finals):
        d = load_dataset("W,H,T,B,count\n0,0,0,0,3\n1,0,1,0,3\n", scm)
        c = check_dependence(finals[3], d, IndependenceStatement("W", "H"))
        assert c.expected_independent and c.observed_independent and c.agree

    def test_single_row_observations_always_factorize(self, scm, finals):
        d = load_dataset("W,H,T,B,count\n1,0,1,0,9\n", scm)
        for stmt in (IndependenceStatement("W", "H"), IndependenceStatement("T", "B")):
            assert check_dependence(finals[0], d, stmt).observed_independent

    def test_unobserved_stratum_skipped_and_reported(self, scm, finals):
        # mild allows T in {0, 1} but the data only ever shows T=1
        d = load_dataset("W,H,T,B,count\n1,0,1,0,4\n0,1,1,1,4\n", scm)
        stmt = IndependenceStatement("W", "H", frozenset({"T"}))
        c = check_dependence(finals[1], d, stmt)
        assert c.skipped_strata == ((0,),)


class TestRanking:
    def test_spec_walkthrough(self, scm, finals):
        d = load_dataset(WARM_DATA, scm)
        ranking = rank_hypotheses(finals, d)
        by_name = {r.verdict.hypothesis.label: r.verdict for r in ranking}
        assert by_name["warm"].support_compatible
        assert by_name["mild"].support_compatible
        assert by_name["notcold"].support_compatible
        assert not by_name["cheap"].support_compatible
        assert not by_name["costly"].support_compatible
        # the most specific surviving hypothesis leads: 2 worlds vs 3 and 3
        assert ranking[0].verdict.hypothesis.label == "warm"
        assert summarize_ranking(ranking) .winner == "warm"
        assert summarize_ranking(ranking).exit_code == 0

    def test_full_support_defeats_every_goal(self, scm, finals):
        d = load_dataset(
            "W,H,T,B\n0,0,0,0\n1,0,1,0\n0,1,1,1\n1,1,2,1\n", scm
        )
        ranking = rank_hypotheses(finals, d)
        assert all(not r.verdict.support_compatible for r in ranking)
        summary = summarize_ranking(ranking)
        assert summary.winner is None and summary.exit_code == 2

    def test_single_compatible_candidate(self, scm, finals):
        d = load_dataset(WARM_DATA, scm)
        ranking = rank_hypotheses([finals[0]], d)
        assert ranking[0].verdict.compatible
        assert summarize_ranking(ranking).exit_code == 0

    def test_equivalence_classes_marked(self, scm, room_star, finals):
        twin = build_final_model(room_star, ("T",), goal("T", "=", 1), "twin")
        d = load_dataset(WARM_DATA, scm)
        ranking = rank_hypotheses([finals[0], twin], d)
        assert ranking[0].equivalence_class == ranking[1].equivalence_class
        summary = summarize_ranking(ranking)
        assert summary.exit_code == 3
        assert set(summary.tied) == {"warm", "twin"}

    def test_tied_candidates_keep_list_order(self, scm, room_star, finals):
        # warm and twin are equal models with equal compatible sets
        twin = build_final_model(room_star, ("T",), goal("T", "=", 1), "twin")
        d = load_dataset(WARM_DATA, scm)
        for order in ([finals[0], twin], [twin, finals[0]]):
            ranking = rank_hypotheses(order, d)
            assert [r.verdict.hypothesis.label for r in ranking] == [
                f.label for f in order
            ]
            assert [r.equivalence_class for r in ranking] == [1, 1]
            assert summarize_ranking(ranking).exit_code == 3

    def test_stable_under_row_permutation(self, scm, finals):
        rows = ["1,0,1,0", "0,1,1,1", "1,0,1,0", "0,1,1,1", "1,0,1,0"]
        rng = random.Random(5)
        baseline = None
        for _ in range(5):
            rng.shuffle(rows)
            d = load_dataset("W,H,T,B\n" + "\n".join(rows) + "\n", scm)
            ranking = [
                (r.rank, r.verdict.hypothesis.label, r.equivalence_class)
                for r in rank_hypotheses(finals, d)
            ]
            if baseline is None:
                baseline = ranking
            assert ranking == baseline

    def test_empty_candidate_list(self, scm):
        d = load_dataset(WARM_DATA, scm)
        with pytest.raises(TeleoError):
            rank_hypotheses([], d)

    def test_mixed_bases_rejected(self, scm, finals):
        other = do_surgery(chain_scm(), "Y")
        foreign = build_final_model(other, ("Z",), goal("Z", "=", 1))
        d = load_dataset(WARM_DATA, scm)
        with pytest.raises(ComparisonError):
            rank_hypotheses([finals[0], foreign], d)

    def test_support_check_is_monotone(self, scm, finals):
        base_rows = "W,H,T,B\n1,1,2,1\n"
        d_small = load_dataset(base_rows, scm)
        d_large = load_dataset(base_rows + "1,0,1,0\n0,1,1,1\n", scm)
        assert not check_support(finals[0], d_small).support_compatible
        assert not check_support(finals[0], d_large).support_compatible
