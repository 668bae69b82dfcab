import itertools
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qkdforge.codes import (
    ENUMERATION_LIMIT,
    build_syndrome_table,
    check_nested,
    check_table_budget,
    code_from_generator,
    code_from_parts,
    decode,
    key_from_coset,
    named_code,
    quotient,
    syndrome_table_from_check,
)
from qkdforge import codes, gf2
from qkdforge.css import css_build
from qkdforge.gf2 import BitMatrix, BitVector, mat_apply, rank, rref, solve_particular

BV = BitVector.from_string

PARITY_WORDS = {"0000", "0011", "0101", "0110", "1001", "1010", "1100", "1111"}
HAMMING_WORDS = {
    "0000000", "0001011", "0010101", "0011110", "0100111", "0101100",
    "0110010", "0111001", "1000110", "1001101", "1010011", "1011000",
    "1100001", "1101010", "1110100", "1111111",
}


@pytest.fixture(scope="module")
def parity():
    return named_code("parity4")


@pytest.fixture(scope="module")
def hamming():
    return named_code("hamming74")


@pytest.fixture(scope="module")
def rep3():
    return named_code("rep3")


def words(code):
    return {str(c) for c in code.codewords()}


def random_code_of(rng, n, k):
    """A random [n, k] code."""
    while True:
        g = BitMatrix.from_numpy(rng.integers(0, 2, size=(k, n)))
        if rank(g) == k:
            return code_from_generator(g)


def random_code(rng, n):
    """A random [n, k] code with independent generator rows."""
    while True:
        k = int(rng.integers(1, n))
        g = BitMatrix.from_numpy(rng.integers(0, 2, size=(k, n)))
        try:
            return code_from_generator(g)
        except ValueError:
            continue


def hamming15():
    """The [15, 11] Hamming code in systematic form [I | P]: row i carries
    the i-th 4-bit column of weight >= 2."""
    columns = [c for c in range(1, 16) if c & (c - 1)]
    rows = [format(1 << (10 - i), "011b") + format(c, "04b") for i, c in enumerate(columns)]
    return code_from_generator(BitMatrix.from_strings(rows))


def mixed_generator(rng, blocks):
    """Direct sum of the given generator blocks, with random row additions
    so that the rows no longer fall apart into blocks. Row additions keep
    the row space, so the code (and its distance) is the direct sum's."""
    k = sum(b.shape[0] for b in blocks)
    n = sum(b.shape[1] for b in blocks)
    g = np.zeros((k, n), dtype=np.uint8)
    r = c = 0
    for b in blocks:
        g[r : r + b.shape[0], c : c + b.shape[1]] = b
        r, c = r + b.shape[0], c + b.shape[1]
    for _ in range(4 * k):
        i, j = rng.choice(k, size=2, replace=False)
        g[i] ^= g[j]
    return BitMatrix.from_numpy(g)


def brute_min_weight(rows):
    """Minimum weight over all nonzero sums of the given rows, pure Python."""
    ints = [int("".join(map(str, row)), 2) for row in rows]
    weights = []
    for m in range(1, 2 ** len(ints)):
        word = 0
        for i, value in enumerate(ints):
            if m >> i & 1:
                word ^= value
        weights.append(bin(word).count("1"))
    return min(weights)


def in_message_order(code):
    return [code.encode(BV(format(m, f"0{code.k}b"))) for m in range(2**code.k)]


@st.composite
def generators(draw):
    """A k x n generator with k <= 8, n <= 12; its rows may be dependent."""
    n = draw(st.integers(2, 12))
    k = draw(st.integers(1, min(8, n - 1)))
    row = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)
    return BitMatrix(tuple(map(BitVector.from_ints, draw(st.lists(row, min_size=k, max_size=k)))))


@st.composite
def nested_pairs(draw):
    """Generators (G1, G2) with k2 < k1 <= 5 and n <= 9, G2's rows random
    sums of G1's; either may have dependent rows."""
    n = draw(st.integers(3, 9))
    k1 = draw(st.integers(2, min(5, n - 1)))
    k2 = draw(st.integers(1, k1 - 1))

    def bits(rows, cols):
        row = st.lists(st.integers(0, 1), min_size=cols, max_size=cols)
        return np.array(draw(st.lists(row, min_size=rows, max_size=rows)), dtype=np.uint8)

    g1 = bits(k1, n)
    return BitMatrix.from_numpy(g1), BitMatrix.from_numpy(bits(k2, k1) @ g1 % 2)


class TestConstruction:
    def test_parity_codewords(self, parity):
        assert words(parity) == PARITY_WORDS

    def test_hamming_codewords(self, hamming):
        assert words(hamming) == HAMMING_WORDS

    def test_repetition(self, rep3):
        assert words(rep3) == {"000", "111"}

    def test_dependent_rows_rejected(self):
        with pytest.raises(ValueError, match="dependent"):
            code_from_generator(BitMatrix.from_strings(["1010", "0101", "1111"]))
        # More rows than columns is reported as dependence, before k < n.
        with pytest.raises(ValueError, match="dependent"):
            code_from_generator(BitMatrix.from_strings(["110", "011", "101", "111"]))

    def test_square_generator_rejected(self):
        with pytest.raises(ValueError, match="need k < n"):
            code_from_generator(BitMatrix.identity(3))

    def test_check_consistency_enforced(self):
        with pytest.raises(ValueError):
            code_from_parts(
                BitMatrix.from_strings(["1001", "0101", "0011"]),
                BitMatrix.from_strings(["1110"]),
            )

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(generators())
    def test_derived_check_matrix(self, g):
        """The H that code_from_generator derives is not re-validated at
        run time; its invariants are checked here."""
        assume(rank(g) == g.num_rows)
        code = code_from_generator(g)
        assert rank(code.H) == code.n - code.k
        assert not any(h.dot(row) for h in code.H.rows for row in g.rows)
        assert words(code.dual().dual()) == words(code)

    def test_code_is_frozen(self, hamming):
        with pytest.raises(FrozenInstanceError):
            hamming.k = 3
        assert hamming.weights == (3, 2, 1)

    def test_named_codes_pin_printed_check_matrices(self, hamming, rep3):
        assert [str(r) for r in hamming.H.rows] == ["1110100", "1101010", "0111001"]
        assert [str(r) for r in rep3.H.rows] == ["110", "011"]


class TestEncode:
    def test_parity_example(self, parity):
        assert parity.encode(BV("011")) == BV("0110")

    def test_zero_message(self, hamming):
        assert hamming.encode(BitVector.zeros(4)).is_zero()

    def test_hamming_systematic(self, hamming):
        word = hamming.encode(BV("0011"))
        assert word == BV("0011110")
        assert str(word)[:4] == "0011"

    def test_encoded_word_in_code(self, hamming):
        for m in range(16):
            assert hamming.contains(hamming.encode(BV(format(m, "04b"))))

    def test_length_check(self, hamming):
        with pytest.raises(ValueError):
            hamming.encode(BV("011"))


class TestMembership:
    def test_examples(self, parity, hamming):
        assert not parity.contains(BV("0111"))
        assert parity.contains(BitVector.zeros(4))
        assert hamming.contains(BV("1111111"))


class TestWeights:
    def test_capacities(self, parity, hamming, rep3):
        assert parity.weights == (2, 1, 0)
        assert hamming.weights == (3, 2, 1)
        assert rep3.weights == (3, 2, 1)

    def test_singleton_bound_random(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            code = random_code(rng, 8)
            assert code.distance <= code.n - code.k + 1

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(generators())
    def test_distance_matches_brute_force(self, g):
        assume(rank(g) == g.num_rows)
        code = code_from_generator(g)
        d = brute_min_weight([tuple(r) for r in g.rows])
        assert code.weights == (d, d - 1, (d - 1) // 2)

    def test_beyond_one_word(self):
        """n > 64 packs each codeword into several words."""
        rng = np.random.default_rng(20)
        for n in (65, 130):
            code = random_code_of(rng, n, 6)
            assert code.distance == brute_min_weight([tuple(r) for r in code.G.rows])
            encoded = in_message_order(code)
            assert list(code.codewords()) == encoded
            x = BitVector.from_ints(rng.integers(0, 2, size=n))
            assert code.coset(x) == frozenset(x + c for c in encoded)
            for u in (x,) + code.dual().G.rows:
                assert code.char_sum(u) == sum(-1 if c.dot(u) else 1 for c in encoded)

    def test_k20(self):
        """Five mixed copies of the extended [8, 4, 4] Hamming code make a
        [40, 20, 4] code; with a [7, 4, 3] Hamming block as the fifth, d is 3."""
        extended = np.array(
            [[int(b) for b in row + str(row.count("1") % 2)]
             for row in ("1000110", "0100111", "0010101", "0001011")], dtype=np.uint8)
        rng = np.random.default_rng(21)
        code = code_from_generator(mixed_generator(rng, [extended] * 5))
        assert (code.n, code.k, code.weights) == (40, 20, (4, 3, 1))
        code = code_from_generator(mixed_generator(rng, [extended] * 4 + [extended[:, :7]]))
        assert (code.n, code.k, code.weights) == (39, 20, (3, 2, 1))

    def test_enumeration_guard(self):
        k = ENUMERATION_LIMIT + 1
        wide = code_from_generator(BitMatrix.from_numpy(np.eye(k, k + 1, dtype=np.uint8)))
        with pytest.raises(ValueError):
            _ = wide.weights


class TestCodewordOrder:
    def test_message_integer_order(self, hamming):
        for code in (hamming, hamming15()):
            assert list(code.codewords()) == in_message_order(code)


class TestDual:
    def test_parity_weakly_self_dual(self, parity):
        dual = parity.dual()
        assert words(dual) == {"0000", "1111"}
        assert all(parity.contains(c) for c in dual.codewords())

    def test_hamming_weakly_self_dual(self, hamming):
        dual = hamming.dual()
        assert dual.n == 7 and dual.k == 3
        assert len(words(dual)) == 8
        assert all(hamming.contains(c) for c in dual.codewords())

    def test_double_dual_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            code = random_code(rng, 7)
            assert words(code.dual().dual()) == words(code)

    def test_orthogonality(self, hamming):
        for c in hamming.codewords():
            for d in hamming.dual().codewords():
                assert c.dot(d) == 0


class TestSyndrome:
    def test_single_error(self, hamming):
        assert hamming.syndrome(BV("1011110")) == BV("110")

    def test_codeword_zero(self, hamming):
        for c in hamming.codewords():
            assert hamming.syndrome(c).is_zero()

    def test_two_errors(self, hamming):
        assert hamming.syndrome(BV("1011111")) == BV("111")

    def test_syndrome_depends_only_on_error(self, hamming):
        rng = np.random.default_rng(12)
        error = BV("0100100")
        for _ in range(10):
            c = hamming.encode(BitVector.from_ints(rng.integers(0, 2, size=4)))
            assert hamming.syndrome(c + error) == hamming.syndrome(error)


class TestSyndromeTable:
    def test_hamming_full_table(self, hamming):
        table = build_syndrome_table(hamming, 1)
        expected = {
            "000": "0000000", "110": "1000000", "111": "0100000",
            "101": "0010000", "011": "0001000", "100": "0000100",
            "010": "0000010", "001": "0000001",
        }
        assert {str(s): str(e) for s, e in table.items()} == expected

    def test_rep3_table(self, rep3):
        table = build_syndrome_table(rep3, 1)
        expected = {"00": "000", "10": "100", "11": "010", "01": "001"}
        assert {str(s): str(e) for s, e in table.items()} == expected

    def test_parity_collision_rejected(self, parity):
        with pytest.raises(ValueError):
            build_syndrome_table(parity, 1)
        with pytest.raises(ValueError):
            syndrome_table_from_check(parity.H, 1)

    def test_negative_t_max_rejected(self, hamming):
        with pytest.raises(ValueError, match="t_max must be nonnegative"):
            syndrome_table_from_check(hamming.H, -1)
        with pytest.raises(ValueError, match="t_max must be nonnegative"):
            build_syndrome_table(hamming, -1)

    def test_table_budget_is_checked_before_any_work(self, monkeypatch):
        """sum_{w <= t} C(n, w) against SYNDROME_TABLE_LIMIT: at the limit
        the table is built, one entry over it fails with the count named
        and no syndrome computed."""
        identity = BitMatrix.identity(40)  # every error has its own syndrome
        monkeypatch.setattr(codes, "SYNDROME_TABLE_LIMIT", 1 + 40 + 780)
        assert len(syndrome_table_from_check(identity, 2)) == 821
        monkeypatch.setattr(codes, "SYNDROME_TABLE_LIMIT", 820)
        monkeypatch.setattr(codes, "mat_apply", None)  # any syndrome would fail
        with pytest.raises(ValueError, match="at least 821 entries .* over the limit 820"):
            syndrome_table_from_check(BitMatrix.identity(40), 2)
        with pytest.raises(ValueError, match="at least 821 entries"):
            check_table_budget(40, 39)

    def test_table_budget_admits_the_tested_codes(self):
        assert codes.SYNDROME_TABLE_LIMIT == 1 << 18
        # hamming74, [15, 11], the [23, 12] Golay code, the k = 20 codes, the
        # largest table the tests build, and 102,091 entries in about 1.5 s.
        for n, t in ((7, 1), (15, 1), (23, 3), (40, 1), (12, 4), (40, 4)):
            check_table_budget(n, t)
        with pytest.raises(ValueError, match="t_max=19 on 40 bits"):
            check_table_budget(40, 19)  # the [40, 1] repetition code, 4.8e11 entries

    def test_zero_entry_always_present(self, hamming):
        table = build_syndrome_table(hamming, 0)
        assert table[BitVector.zeros(3)] == BitVector.zeros(7)

    def test_table_is_frozen_and_read_only(self, hamming):
        table = build_syndrome_table(hamming, 1)
        with pytest.raises(TypeError):
            table[BV("110")] = BV("0100000")
        assert table[BV("110")] == BV("1000000")


class TestBuiltOnce:
    def test_derived_objects_are_shared(self, hamming):
        assert hamming.dual() is hamming.dual()
        assert quotient(hamming, hamming.dual()) is quotient(hamming, hamming.dual())
        assert build_syndrome_table(hamming, 1) is syndrome_table_from_check(hamming.H, 1)
        assert syndrome_table_from_check(hamming.H, 0) is not build_syndrome_table(hamming, 1)
        assert named_code("hamming74") is hamming

    def test_equal_codes_keep_their_own_derived_objects(self, hamming):
        twin = code_from_parts(hamming.G, hamming.H)
        assert twin.dual() is not hamming.dual()
        assert quotient(twin, twin.dual()) is not quotient(hamming, hamming.dual())

    def test_failed_builds_are_not_kept(self, parity):
        for _ in range(2):
            with pytest.raises(ValueError, match="collision"):
                syndrome_table_from_check(parity.H, 1)
            with pytest.raises(ValueError, match="not a subcode"):
                quotient(parity.dual(), parity)
            with pytest.raises(ValueError, match="C2 is not contained in C1"):
                check_nested(parity, code_from_generator(BitMatrix.from_strings(["1110"])))
            with pytest.raises(ValueError, match="proper subcode"):
                check_nested(parity, parity)


class TestDecode:
    def test_single_error_corrected(self, hamming):
        table = build_syndrome_table(hamming, 1)
        result = decode(hamming, table, BV("1011110"))
        assert result.word == BV("0011110")
        assert result.error == BV("1000000")
        assert result.status == "ok"

    def test_codeword_passthrough(self, hamming):
        table = build_syndrome_table(hamming, 1)
        for c in hamming.codewords():
            result = decode(hamming, table, c)
            assert result.word == c and result.error.is_zero()

    def test_two_errors_miscorrect(self, hamming):
        table = build_syndrome_table(hamming, 1)
        result = decode(hamming, table, BV("1011111"))
        assert result.word == BV("1111111")
        assert result.status == "ok"  # silent miscorrection

    def test_detected_uncorrectable(self, rep3):
        # Weight-0 table leaves nonzero syndromes unmatched.
        table = build_syndrome_table(rep3, 0)
        result = decode(rep3, table, BV("100"))
        assert result.status == "detected_uncorrectable"
        assert result.word == BV("100")

    def test_round_trip_within_capacity_exhaustive(self, hamming, rep3):
        for code in (hamming, rep3):
            table = build_syndrome_table(code, code.corrects)
            patterns = [BitVector.zeros(code.n)] + [
                BitVector.from_ints(1 if j == i else 0 for j in range(code.n))
                for i in range(code.n)
            ]
            for c in code.codewords():
                for e in patterns:
                    result = decode(code, table, c + e)
                    assert result.word == c and result.status == "ok"

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(generators(), st.data())
    def test_every_error_within_capacity_decodes(self, g, data):
        assume(rank(g) == g.num_rows)
        code = code_from_generator(g)
        table = build_syndrome_table(code, code.corrects)
        sent = code.encode(BitVector(data.draw(st.integers(0, 2**code.k - 1)), code.k))
        for weight in range(code.corrects + 1):
            for positions in itertools.combinations(range(code.n), weight):
                error = BitVector(sum(1 << (code.n - 1 - i) for i in positions), code.n)
                result = decode(code, table, sent + error)
                assert result.word == sent and result.status == "ok"

    def test_round_trip_random_codes(self):
        rng = np.random.default_rng(13)
        tried = 0
        while tried < 5:
            code = random_code(rng, int(rng.integers(5, 11)))
            t = code.corrects
            if t == 0:
                continue
            tried += 1
            table = build_syndrome_table(code, t)
            for c in itertools.islice(code.codewords(), 8):
                for positions in itertools.combinations(range(code.n), t):
                    e = BitVector.from_ints(
                        1 if i in positions else 0 for i in range(code.n)
                    )
                    assert decode(code, table, c + e).word == c


class TestCosets:
    def test_shifted_parity_coset(self, parity):
        got = {str(w) for w in parity.coset(BV("0111"))}
        assert got == {"0111", "0100", "0010", "0001", "1110", "1101", "1011", "1000"}

    def test_codeword_shift_is_code(self, parity):
        assert parity.coset(BV("0011")) == frozenset(parity.codewords())

    def test_equal_or_disjoint(self, parity):
        rng = np.random.default_rng(14)
        for _ in range(20):
            x1 = BitVector.from_ints(rng.integers(0, 2, size=4))
            x2 = BitVector.from_ints(rng.integers(0, 2, size=4))
            c1, c2 = parity.coset(x1), parity.coset(x2)
            if x2 in c1:
                assert c1 == c2
            else:
                assert not (c1 & c2)


class TestQuotient:
    def test_parity_four_cosets(self, parity):
        q = quotient(parity, parity.dual())
        cosets = [{str(w) for w in c} for c in q.cosets()]
        expected = [
            {"0000", "1111"}, {"0011", "1100"}, {"0101", "1010"}, {"0110", "1001"},
        ]
        assert len(cosets) == 4
        for c in expected:
            assert c in cosets
        union = set().union(*cosets)
        assert len(union) == 8 and sum(len(c) for c in cosets) == 8

    def test_same_code_single_coset(self, parity):
        q = quotient(parity, parity)
        assert q.key_length == 0
        assert q.cosets() == [frozenset(parity.codewords())]

    def test_hamming_two_cosets_match_quantum_ket_sets(self, hamming):
        q = quotient(hamming, hamming.dual())
        cosets = [frozenset(str(w) for w in c) for c in q.cosets()]
        dual_words = frozenset(str(w) for w in hamming.dual().codewords())
        other = frozenset(
            str(w) for w in hamming.dual().coset(BV("0001011"))
        )
        assert set(cosets) == {dual_words, other}

    def test_not_subcode_rejected(self, parity, rep3):
        odd = code_from_generator(BitMatrix.from_strings(["1110"]))
        with pytest.raises(ValueError):
            quotient(parity, odd)


def greedy_extension_rows(c1, c2):
    """The original scan: keep each C1 generator row that raises the rank
    of (C2 basis + kept rows), until the rank reaches k1."""
    stack = list(c2.G.rows)
    current_rank = rank(BitMatrix(tuple(stack)))
    extension = []
    for row in c1.G.rows:
        if current_rank == c1.k:
            break
        if rank(BitMatrix(tuple(stack + [row]))) > current_rank:
            stack.append(row)
            extension.append(row)
            current_rank += 1
    assert current_rank == c1.k
    return tuple(extension)


class TestQuotientOracle:
    def test_named_and_h15_pairs(self, parity, hamming, rep3):
        h15 = hamming15()
        pairs = [(parity, parity.dual()), (hamming, hamming.dual()), (h15, h15.dual())]
        pairs += [(c, c) for c in (parity, hamming, rep3)]
        for c1, c2 in pairs:
            assert quotient(c1, c2).extension_rows == greedy_extension_rows(c1, c2)

    def test_random_nested_pairs(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            c1 = random_code(rng, int(rng.integers(3, 16)))
            k2 = int(rng.integers(1, c1.k + 1))
            while True:
                mix = rng.integers(0, 2, size=(k2, c1.k)) @ c1.G.to_numpy() % 2
                if rank(BitMatrix.from_numpy(mix)) == k2:
                    break
            c2 = code_from_generator(BitMatrix.from_numpy(mix))
            assert quotient(c1, c2).extension_rows == greedy_extension_rows(c1, c2)

    def test_larger_dimension_rejected(self, parity):
        with pytest.raises(ValueError, match="not a subcode"):
            quotient(parity.dual(), parity)


class TestKeyFromCoset:
    def test_subcode_maps_to_zero(self, hamming):
        q = quotient(hamming, hamming.dual())
        for w in hamming.dual().codewords():
            assert key_from_coset(q, w) == BV("0")

    def test_hamming_two_keys(self, hamming):
        q = quotient(hamming, hamming.dual())
        keys = {str(key_from_coset(q, u)) for u in hamming.codewords()}
        assert keys == {"0", "1"}

    def test_constant_on_cosets_bijective_across(self, parity, hamming):
        for c1 in (parity, hamming):
            q = quotient(c1, c1.dual())
            seen = {}
            for u in c1.codewords():
                key = key_from_coset(q, u)
                coset = frozenset(c1.dual().coset(u))
                if coset in seen:
                    assert seen[coset] == key
                else:
                    assert key not in seen.values()
                    seen[coset] = key
            assert len(seen) == 2**q.key_length

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(nested_pairs())
    def test_bijection_on_random_nested_pairs(self, pair):
        """Every C1 word gets a key, two words share one exactly when they
        differ by a C2 word, and each key's representative maps back."""
        g1, g2 = pair
        assume(rank(g1) == g1.num_rows and rank(g2) == g2.num_rows)
        c1, c2 = code_from_generator(g1), code_from_generator(g2)
        q = quotient(c1, c2)
        c2_words = set(c2.codewords())
        keyed = [(u, key_from_coset(q, u)) for u in c1.codewords()]
        for u, key in keyed:
            for v, other in keyed:
                assert (key == other) == (u + v in c2_words)
        keys = {key for _, key in keyed}
        assert len(keys) == 2 ** (c1.k - c2.k)
        for key in keys:
            assert key_from_coset(q, q.representative(key)) == key

    def test_non_codeword_rejected(self, parity, hamming):
        q = quotient(parity, parity.dual())
        with pytest.raises(ValueError, match="^0001 is not a codeword of C1$"):
            key_from_coset(q, BV("0001"))
        with pytest.raises(ValueError, match="word length must be n=4, got 3"):
            key_from_coset(q, BV("000"))
        for c1 in (parity, hamming):
            q = quotient(c1, c1.dual())
            words = {str(c) for c in c1.codewords()}
            for value in range(2**c1.n):
                u = BitVector(value, c1.n)
                if str(u) not in words:
                    with pytest.raises(ValueError, match=f"^{u} is not a codeword of C1$"):
                        key_from_coset(q, u)

    def test_quotient_is_frozen(self, hamming):
        q = quotient(hamming, hamming.dual())
        with pytest.raises(FrozenInstanceError):
            q.extension_rows = ()
        with pytest.raises(FrozenInstanceError):
            q.c2 = hamming


def augmented_solve(matrix, target):
    """solve_particular as first written: one elimination of [M | s] per
    call, with x read off the last column at the pivot columns."""
    n = matrix.num_cols
    augmented = BitMatrix(tuple(
        BitVector(row.value << 1 | bit, n + 1) for row, bit in zip(matrix.rows, target)))
    reduced = rref(augmented)
    if n in reduced.pivot_cols:
        return None
    value = 0
    for row, col in zip(reduced.matrix.rows, reduced.pivot_cols):
        if row.value & 1:
            value |= 1 << (n - 1 - col)
    return BitVector(value, n)


class TestSolveParticularOracle:
    def test_every_syndrome_of_the_named_and_h15_check_matrices(self, parity, hamming):
        for c1 in (parity, hamming, hamming15()):
            code = css_build(c1, c1.dual())
            for matrix in (code.h1, code.h2, c1.G, c1.dual().H):
                m = matrix.num_rows
                for s in range(2**m):
                    target = BitVector(s, m)
                    x = solve_particular(matrix, target)
                    assert x == augmented_solve(matrix, target)
                    assert mat_apply(matrix, x, side="right") == target

    def test_dependent_rows_match_including_inconsistent_targets(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 9))
            base = rng.integers(0, 2, size=(rows, cols))
            mixed = np.vstack([base, (rng.integers(0, 2, size=(2, rows)) @ base) % 2])
            matrix = BitMatrix.from_numpy(rng.permutation(mixed))
            m = matrix.num_rows
            for s in range(2**m):
                target = BitVector(s, m)
                assert solve_particular(matrix, target) == augmented_solve(matrix, target)

    def test_one_elimination_per_matrix(self, monkeypatch):
        calls = []

        def counting_rref(matrix):
            calls.append(matrix)
            return rref(matrix)

        monkeypatch.setattr(gf2, "rref", counting_rref)
        matrix = BitMatrix.from_strings(["1110100", "1101010", "0111001"])
        for s in range(8):
            solve_particular(matrix, BitVector(s, 3))
        assert len(calls) == 1
        # An equal but distinct matrix keeps its own reduction.
        solve_particular(BitMatrix(matrix.rows), BitVector(1, 3))
        assert len(calls) == 2


def key_by_solving(q, u):
    """key_from_coset as first written: solve for u's coefficients in the
    basis (C2 rows, extension rows) with a full elimination per call."""
    basis = BitMatrix(q.c2.G.rows + q.extension_rows)
    coefficients = solve_particular(basis.transpose(), u)
    assert coefficients is not None
    return coefficients[q.c2.k :]


class TestKeyFromCosetOracle:
    def test_every_coset_of_the_named_and_h15_pairs(self, parity, hamming):
        for c1 in (parity, hamming, hamming15()):
            q = quotient(c1, c1.dual())
            for m in range(2**q.key_length):
                key = BitVector(m, q.key_length)
                for w in q.c2.codewords():
                    u = q.representative(key) + w
                    assert key_from_coset(q, u) == key_by_solving(q, u) == key

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(generators(), st.data())
    def test_matches_solving_on_row_subsets(self, g, data):
        """C2 is spanned by a proper subset of C1's generator rows, taken
        in a drawn order; every C1 codeword gets the oracle's key."""
        assume(g.num_rows >= 2 and rank(g) == g.num_rows)
        c1 = code_from_generator(g)
        picked = data.draw(st.lists(
            st.integers(0, c1.k - 1), min_size=1, max_size=c1.k - 1, unique=True))
        c2 = code_from_generator(BitMatrix(tuple(g.rows[i] for i in picked)))
        q = quotient(c1, c2)
        for u in c1.codewords():
            assert key_from_coset(q, u) == key_by_solving(q, u)


class TestCharSum:
    def test_examples(self, parity):
        assert parity.char_sum(BV("1111")) == 8
        assert parity.char_sum(BitVector.zeros(4)) == 8
        assert parity.char_sum(BV("0001")) == 0

    def test_both_branches_exhaustive(self, parity, hamming):
        for code in (parity, hamming):
            dual_words = set(code.dual().codewords())
            for m in range(2**code.n):
                u = BV(format(m, f"0{code.n}b"))
                expected = 2**code.k if u in dual_words else 0
                assert code.char_sum(u) == expected

    def test_random_codes(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            code = random_code(rng, int(rng.integers(4, 11)))
            dual_words = set(code.dual().codewords())
            for _ in range(16):
                u = BitVector.from_ints(rng.integers(0, 2, size=code.n))
                expected = 2**code.k if u in dual_words else 0
                assert code.char_sum(u) == expected


def test_unknown_named_code():
    with pytest.raises(ValueError):
        named_code("golay23")
