"""Demonstration assembly programs for the SPARC-flavoured machine.

Small numeric kernels written in the textual ISA of
:mod:`repro.isa.machine`, used by tests, the assembly example, and as
templates for writing new programs.  Each entry documents its memory
protocol (where inputs/outputs live).
"""

from __future__ import annotations

from typing import Dict

__all__ = [
    "PROGRAMS",
    "PROGRAM_STEP_BUDGET",
    "SAMPLE_STEP_BUDGET",
    "STEPS_PER_ELEMENT",
    "SAXPY",
    "DOT_PRODUCT",
    "VECTOR_NORMALIZE",
    "GAMMA_LUT",
    "SOBEL_GX",
    "MEMO_SHOWCASE",
]

#: y[i] <- a*x[i] + y[i].  Inputs: n at %r1, x at 0x1000, y at 0x2000,
#: a in %f1 (seeded by the harness via fset prologue below).
SAXPY = """
        ! saxpy: y[i] = a * x[i] + y[i]
        fset    2.5, %f1        ! a
        set     0, %r2          ! i = 0
        set     4096, %r3       ! &x
        set     8192, %r4       ! &y
loop:
        cmp     %r2, %r1
        bge     done
        ld      [%r3 + 0], %f2
        ld      [%r4 + 0], %f3
        fmul    %f1, %f2, %f4
        fadd    %f4, %f3, %f5
        st      %f5, [%r4 + 0]
        add     %r3, 8, %r3
        add     %r4, 8, %r4
        add     %r2, 1, %r2
        ba      loop
done:
        halt
"""

#: dot <- sum x[i]*y[i].  Inputs: n at %r1, x at 0x1000, y at 0x2000;
#: output written to 0x3000.
DOT_PRODUCT = """
        ! dot product with result at 0x3000
        set     0, %r2
        set     4096, %r3
        set     8192, %r4
        fset    0.0, %f6
loop:
        cmp     %r2, %r1
        bge     done
        ld      [%r3 + 0], %f2
        ld      [%r4 + 0], %f3
        fmul    %f2, %f3, %f4
        fadd    %f6, %f4, %f6
        add     %r3, 8, %r3
        add     %r4, 8, %r4
        add     %r2, 1, %r2
        ba      loop
done:
        set     12288, %r5
        st      %f6, [%r5 + 0]
        halt
"""

#: x[i] <- x[i] / norm, norm = sqrt(sum x[i]^2).  n at %r1, x at 0x1000.
VECTOR_NORMALIZE = """
        ! two passes: sum of squares + sqrt, then divide through
        set     0, %r2
        set     4096, %r3
        fset    0.0, %f6
sumsq:
        cmp     %r2, %r1
        bge     scale
        ld      [%r3 + 0], %f2
        fmul    %f2, %f2, %f4
        fadd    %f6, %f4, %f6
        add     %r3, 8, %r3
        add     %r2, 1, %r2
        ba      sumsq
scale:
        fsqrt   %f6, %f7        ! the norm
        set     0, %r2
        set     4096, %r3
divloop:
        cmp     %r2, %r1
        bge     done
        ld      [%r3 + 0], %f2
        fdiv    %f2, %f7, %f5   ! same divisor every iteration
        st      %f5, [%r3 + 0]
        add     %r3, 8, %r3
        add     %r2, 1, %r2
        ba      divloop
done:
        halt
"""

#: out[i] <- x[i]*x[i] / 255  (the gamma curve of the custom_kernel
#: example, as a binary).  n at %r1, x at 0x1000, out at 0x2000.
GAMMA_LUT = """
        set     0, %r2
        set     4096, %r3
        set     8192, %r4
        fset    255.0, %f1
loop:
        cmp     %r2, %r1
        bge     done
        ld      [%r3 + 0], %f2
        fmul    %f2, %f2, %f3
        fdiv    %f3, %f1, %f4
        st      %f4, [%r4 + 0]
        add     %r3, 8, %r3
        add     %r4, 8, %r4
        add     %r2, 1, %r2
        ba      loop
done:
        halt
"""

#: Sobel horizontal-gradient magnitude over a row-major double image.
#: Inputs: width in %r1, height in %r2, image at 0x1000; output (same
#: layout) at 0x20000.  The address arithmetic uses smul per pixel --
#: the integer-multiply stream Table 5/7 measure.
SOBEL_GX = """
        set     1, %r5          ! i = 1
rows:
        add     %r2, -1, %r9    ! height-1
        cmp     %r5, %r9
        bge     done
        set     1, %r6          ! j = 1
cols:
        add     %r1, -1, %r9    ! width-1
        cmp     %r6, %r9
        bge     nextrow
        ! base offset of (i-1, j-1): ((i-1)*w + (j-1)) * 8 + 0x1000
        add     %r5, -1, %r7
        smul    %r7, %r1, %r7   ! (i-1) * w
        add     %r7, %r6, %r7
        add     %r7, -1, %r7
        sll     %r7, 3, %r7
        add     %r7, 4096, %r7  ! &p[i-1][j-1]
        ! right column minus left column, rows i-1, i, i+1
        ld      [%r7 + 16], %f2     ! p[i-1][j+1]
        ld      [%r7 + 0],  %f3     ! p[i-1][j-1]
        fsub    %f2, %f3, %f4
        sll     %r1, 3, %r8         ! row stride in bytes
        add     %r7, %r8, %r7       ! &p[i][j-1]
        ld      [%r7 + 16], %f2
        ld      [%r7 + 0],  %f3
        fsub    %f2, %f3, %f5
        fset    2.0, %f1
        fmul    %f5, %f1, %f5       ! centre row weighted x2
        add     %r7, %r8, %r7       ! &p[i+1][j-1]
        ld      [%r7 + 16], %f2
        ld      [%r7 + 0],  %f3
        fsub    %f2, %f3, %f6
        fadd    %f4, %f5, %f7
        fadd    %f7, %f6, %f7       ! gx
        ! out[i][j] = gx / 8
        fset    8.0, %f1
        fdiv    %f7, %f1, %f7
        smul    %r5, %r1, %r9
        add     %r9, %r6, %r9
        sll     %r9, 3, %r9
        add     %r9, 131072, %r9    ! &out[i][j]
        st      %f7, [%r9 + 0]
        add     %r6, 1, %r6
        ba      cols
nextrow:
        add     %r5, 1, %r5
        ba      rows
done:
        halt
"""

#: Exercises every static memo-opportunity class in one loop: a trivial
#: multiply (x1), a compile-time-constant pair, a locally redundant
#: (CSE-able) repeat, a range-bounded integer multiply (operands masked
#: to 3 bits), and an unknown data-dependent divide.  n at %r1, x at
#: 0x1000, out at 0x2000.  Used by `repro analyze` demos and the
#: static-vs-dynamic cross-validation tests.
MEMO_SHOWCASE = """
        set     0, %r2          ! i = 0
        set     4096, %r3       ! &x
        set     8192, %r4       ! &out
        fset    1.0, %f1        ! trivial multiplier
        fset    3.0, %f8
        fset    7.0, %f9
loop:
        cmp     %r2, %r1
        bge     done
        ld      [%r3 + 0], %f2
        fmul    %f2, %f1, %f3   ! trivial: x[i] * 1.0
        fmul    %f8, %f9, %f4   ! constant: 3.0 * 7.0 every iteration
        fmul    %f2, %f2, %f5   ! unknown: x[i]^2
        fmul    %f2, %f2, %f6   ! redundant: same pair as the line above
        fdiv    %f5, %f2, %f7   ! unknown: data-dependent divide
        and     %r2, 7, %r5     ! i mod 8
        and     %r2, 3, %r6     ! i mod 4
        smul    %r5, %r6, %r7   ! range-bounded: pair space <= 8*4
        fadd    %f3, %f4, %f3
        fadd    %f3, %f5, %f3
        fadd    %f3, %f7, %f3
        st      %f3, [%r4 + 0]
        add     %r3, 8, %r3
        add     %r4, 8, %r4
        add     %r2, 1, %r2
        ba      loop
done:
        halt
"""

PROGRAMS: Dict[str, str] = {
    "saxpy": SAXPY,
    "dot_product": DOT_PRODUCT,
    "vector_normalize": VECTOR_NORMALIZE,
    "gamma_lut": GAMMA_LUT,
    "sobel_gx": SOBEL_GX,
    "memo_showcase": MEMO_SHOWCASE,
}

#: A floor on the machine steps each program spends per element of its
#: workload size ``n`` on the reference harness
#: (:func:`repro.analysis.static.memo.reference_machine`): every run
#: takes at least ``STEPS_PER_ELEMENT[name] * n`` steps, one pass of a
#: loop body per element plus set-up (saxpy takes 11n + 7).  sobel_gx,
#: whose ``n`` sets a width and a height, has its lowest ratio on small
#: images (159 steps at n = 14).  Serve rejects an ``n`` whose floor
#: exceeds the job's step budget.
STEPS_PER_ELEMENT: Dict[str, int] = {
    "saxpy": 11,
    "dot_product": 10,
    "vector_normalize": 16,
    "gamma_lut": 10,
    "sobel_gx": 11,
    "memo_showcase": 19,
}

#: Machine steps one run may take: a program run (``repro stats``,
#: ``repro-trace asm``, a serve ``program`` job, the static analyzer's
#: check) and a sampled estimate's full run (``repro sample``, a serve
#: ``sample`` job).
PROGRAM_STEP_BUDGET = 2_000_000
SAMPLE_STEP_BUDGET = 8_000_000
