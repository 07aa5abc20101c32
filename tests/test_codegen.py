"""Tests for the pseudo-Fortran source generator."""

from repro.ir.codegen import generate_original_source, generate_source
from repro.ir.transform import plan_transform
from repro.workloads.synthetic import chain_loop, random_irregular_loop
from repro.workloads.testloop import make_test_loop


class TestOriginalSource:
    def test_figure7_style_identity_write(self):
        loop = chain_loop(100, 2)
        text = generate_original_source(loop)
        assert "do i = 1, 100" in text
        assert "y(i) = y(i) + coeff(k) * y(index(k))" in text

    def test_affine_write_rendered(self):
        loop = make_test_loop(n=50, m=1, l=4)  # write = 2i + shift
        text = generate_original_source(loop)
        assert "y(2*i +" in text

    def test_indirect_write_rendered_as_a_of_i(self):
        loop = random_irregular_loop(20, seed=0)
        assert "y(a(i))" in generate_original_source(loop)

    def test_external_init_uses_rhs(self):
        loop = random_irregular_loop(20, seed=0, external_init=True)
        assert "= rhs(i)" in generate_original_source(loop)


class TestTransformedSource:
    def test_preprocessed_has_all_three_phases(self):
        loop = random_irregular_loop(30, seed=1)
        text = generate_source(loop)
        assert "inspector" in text
        assert "executor" in text
        assert "postprocessor" in text
        assert "iter(a(i)) = i" in text
        assert "iter(a(i)) = MAXINT" in text

    def test_figure5_trichotomy_present(self):
        loop = random_irregular_loop(30, seed=1)
        text = generate_source(loop)
        assert "check = writer - i" in text
        assert "check .lt. 0" in text
        assert "check .eq. 0" in text
        assert "while (ready(offset) .ne. DONE)" in text
        assert "ready(a(i)) = DONE" in text

    def test_linear_variant_has_no_inspector_no_iter(self):
        loop = make_test_loop(n=40, m=1, l=4)
        text = generate_source(loop)
        assert "inspector" not in text
        assert "closed form" in text
        assert "mod(offset" in text
        # No iter array anywhere (the §2.3 storage saving).
        assert "iter(" not in text

    def test_classic_source(self):
        loop = chain_loop(60, 3)
        plan = plan_transform(loop, known_distance=3)
        text = generate_source(loop, plan)
        assert "a-priori dependence distance 3" in text
        assert "done(i - 3)" in text
        assert "iter" not in text

    def test_doall_source(self):
        loop = random_irregular_loop(20, max_terms=0, seed=0)
        plan = plan_transform(loop, assert_independent=True)
        text = generate_source(loop, plan)
        assert "no synchronization" in text
        assert "ready" not in text

    def test_header_names_strategy(self):
        loop = random_irregular_loop(10, seed=0)
        text = generate_source(loop)
        assert text.startswith("! strategy: preprocessed")

    def test_deterministic(self):
        loop = random_irregular_loop(25, seed=9)
        assert generate_source(loop) == generate_source(loop)

    def test_negative_affine_offset_rendered(self):
        from repro.ir.accesses import ReadTable
        from repro.ir.loop import IrregularLoop
        from repro.ir.subscript import AffineSubscript

        loop = IrregularLoop(
            n=3,
            y_size=10,
            write_subscript=AffineSubscript(-1, 9),
            reads=ReadTable.from_lists([[], [], []]),
        )
        text = generate_original_source(loop)
        assert "y(-1*i + 9)" in text


class TestCompiledExecutorText:
    """``codegen --c``: the one piece of generated code that is compiled
    and run, not just rendered (``repro.backends.native``)."""

    def test_golden_fragments(self, capsys):
        from repro.__main__ import main
        from repro.backends.native import c_source

        assert main(["codegen", "--c"]) == 0
        text = capsys.readouterr().out
        assert text == c_source()
        assert text.startswith(
            "#include <stdint.h>\n\n"
            "#define OLD 0\n#define LOCAL 1\n#define WAIT 2\n#define ACC 3\n"
        )
        # Figure 5's three-way term rule, by code ...
        assert (
            "            case OLD: value = old[idx]; break;\n"
            "            case ACC: value = acc; break;\n"
            "            case LOCAL: value = out[idx]; break;\n"
            "            case WAIT: default: value = new_[idx]; break;\n"
        ) in text
        # ... one multiply, one add, left to right, like the oracle, the
        # coefficient at the term's own offset in either layout ...
        assert "            acc += coeff[c] * value;\n" in text
        assert "int64_t c = start ? start[p] : k;" in text
        # ... and every subscript checked before it is used.
        assert "if (idx < 0 || idx >= y_size)\n                return -(t + 1);" in text
        assert "if (c < 0 || c > n_coeff - (hi - k))\n            return -(t + 1);" in text
        assert "double acc = init ? init[i] : old[w];" in text
        # The sequential loop is the second function, the oracle's
        # arithmetic compiled; the one max-plus recurrence is the third —
        # critical path and simulated cycles — its subscripts checked the
        # same way and a second write of an element refused; the
        # inspector is the fourth: Figure 3's iter array, the levels, the
        # Figure-5 compare once per term.
        assert text.count("\nint64_t ") == 4  # ..., max_plus, inspect
        assert "int64_t inspect(" in text
        assert "                codes[cur] = j == i ? ACC : j < i ? WAIT : OLD;\n" in text
        assert "            acc += coeff[k] * (idx == w ? acc : y[idx]);\n" in text
        assert "int64_t max_plus(" in text
        assert (
            "            if (ahead)\n                t += ahead[k];\n"
            "            if (set[idx] > t)\n                t = set[idx];\n"
        ) in text
        assert "        if (set[w] != INT64_MIN)\n            return p + 1;\n" in text
