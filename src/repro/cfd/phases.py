"""The eight mini-app phases as loop-nest IR kernels.

The mini-app isolates the matrix + RHS assembly of Alya's Nastin module
(incompressible Navier-Stokes, VMS-stabilized finite elements on HEX08
meshes) and splits it into the paper's eight instrumented phases:

1. gather per-element data (properties, subscales, local time step) --
   contains the mixed vectorizable / non-vectorizable body of the VEC1
   story (Algorithm 3/4);
2. gather nodal unknowns and coordinates -- the VEC2/IVEC2 loops
   (Algorithms 1/2);
3. Jacobian, determinant, inverse and Cartesian shape-function
   derivatives at the integration points;
4. velocity, pressure and velocity-gradient at the integration points;
5. elemental arrays for the time-integration scheme: stabilization
   parameters (tau_1, tau_2) and zero-initialization of the elemental
   matrix / RHS accumulators;
6. convective term + VMS stabilization contributions to the elemental
   momentum matrix and right-hand sides (the dominant phase);
7. viscous term contribution to the elemental matrices (semi-implicit
   scheme);
8. valid-element check and scatter of elemental contributions into the
   global RHS vector and CSR matrix.

Each builder returns the **canonical baseline** form of its phase as an
:class:`~repro.compiler.ir.Kernel` -- the code as the Fortran mini-app
was originally written (phase 2's trip count a runtime dummy argument,
phase 1 one mixed loop).  The paper's cumulative optimizations (VEC2
constant bound, IVEC2 interchange, VEC1 fission) are **not** hand
variants anymore: they are IR-to-IR passes in
:mod:`repro.compiler.transforms`, applied by a
:class:`~repro.compiler.transforms.PassPipeline` before vectorization
(the rung -> pass table is
:data:`~repro.compiler.transforms.OPT_PASSES`).  The *numerics* of
every rung are identical -- the test suite verifies this through the IR
interpreter against the NumPy reference, and a frozen counters fixture
pins the pipeline output to the pre-refactor hand-written variants.
"""

from __future__ import annotations

from repro.cfd.elements import HEX08, NDIME, NDOFN, NGAUS, PNODE
from repro.cfd.kernel_context import CHUNK_BASE
from repro.compiler.ir import (
    Affine,
    Array,
    Assign,
    BinOp,
    Cond,
    Const,
    Expr,
    Extent,
    If,
    IndexExpr,
    Indirect,
    Kernel,
    Load,
    Loop,
    Param,
    Ref,
    Stmt,
    Unary,
    var,
)


# ---------------------------------------------------------------------------
# small expression helpers
# ---------------------------------------------------------------------------


def _ix(x) -> IndexExpr:
    if isinstance(x, str):
        return var(x)
    if isinstance(x, int):
        return Affine((), x)
    return x


def R(arr: Array, *idx) -> Ref:
    return Ref(arr, tuple(_ix(i) for i in idx))


def L(arr: Array, *idx) -> Load:
    return Load(R(arr, *idx))


def C(v: float) -> Const:
    return Const(float(v))


def P(name: str) -> Param:
    return Param(name)


def add(a: Expr, b: Expr) -> BinOp:
    return BinOp("add", a, b)


def sub(a: Expr, b: Expr) -> BinOp:
    return BinOp("sub", a, b)


def mul(a: Expr, b: Expr) -> BinOp:
    return BinOp("mul", a, b)


def div(a: Expr, b: Expr) -> BinOp:
    return BinOp("div", a, b)


def sqrt(a: Expr) -> Unary:
    return Unary("sqrt", a)


def fsum(terms: list[Expr]) -> Expr:
    """Left-folded sum; mul terms contract to FMAs under -ffp-contract."""
    acc = terms[0]
    for t in terms[1:]:
        acc = add(acc, t)
    return acc


#: the chunk-local element id as a global-array row index.
ELEM = Affine((("ivect", 1), (CHUNK_BASE, 1)))


def _node(A: dict[str, Array]) -> Indirect:
    """Global node id of (element, inode) through the connectivity."""
    return Indirect(A["lnods"], (ELEM, var("inode")))


def _vec_extent(vs: int) -> Extent:
    """The chunk-element extent as a compile-time-known parameter."""
    return Extent(vs, "param", "VECTOR_SIZE")


def _vec_dummy_extent(vs: int) -> Extent:
    """The chunk-element extent as the original runtime dummy argument
    ``VECTOR_DIM`` (the phase-2 vectorization blocker that
    :class:`~repro.compiler.transforms.ConstantTripCount` removes)."""
    return Extent(vs, "runtime_dummy", "VECTOR_DIM")


def _loop(varname: str, extent, body: list[Stmt]) -> Loop:
    if isinstance(extent, int):
        extent = Extent(extent, "const")
    return Loop(varname, extent, tuple(body))


# ---------------------------------------------------------------------------
# Phase 1 -- gather element-level data (Algorithms 3 / 4)
# ---------------------------------------------------------------------------


def phase1(A: dict[str, Array], vs: int) -> Kernel:
    mate = Indirect(A["lmate"], (ELEM,))
    work_a: list[Stmt] = [
        # WORK A: property gathers + the data-dependent special-element
        # handling that keeps the compiler from vectorizing the loop.
        Assign(R(A["eldens"], "ivect"), L(A["densi_mat"], mate)),
        Assign(R(A["elvisc"], "ivect"), L(A["visco_mat"], mate)),
        If(
            Cond("ne", L(A["ltype"], ELEM), C(HEX08)),
            (
                # fall back to unit properties for non-HEX08 / padding
                # elements (they are skipped at scatter time anyway, but
                # must not poison the arithmetic phases with infinities).
                Assign(R(A["eldens"], "ivect"), C(1.0)),
                Assign(R(A["elvisc"], "ivect"), C(1.0)),
            ),
            est_taken=0.02,
        ),
        # subscale-history gather, guarded by the per-element tracking
        # flag: data-dependent control flow the compiler cannot vectorize
        # and the other half of WORK A (it caps the VEC1 fission gain at
        # ~2x, as the paper observes).
        If(
            Cond("ne", L(A["kfl_sgs"], ELEM), C(0)),
            tuple(
                Assign(R(A["elsgs_old"], "ivect", d, g),
                       L(A["tesgs_old"], ELEM, d, g))
                for g in range(NGAUS) for d in range(NDIME)
            ),
            est_taken=0.9,
        ),
    ]
    work_b: list[Stmt] = [
        # WORK B: straight data movement from the global structures --
        # local time step, characteristic length, and the VMS subscale
        # tracked at every integration point (manually unrolled over
        # (idime, igaus) in the Fortran original).
        Assign(R(A["eldtinv"], "ivect"), L(A["dtinv_fld"], ELEM)),
        Assign(R(A["elchale"], "ivect"), L(A["chale_fld"], ELEM)),
    ] + [
        Assign(R(A["elsgs"], "ivect", d, g), L(A["tesgs"], ELEM, d, g))
        for g in range(NGAUS) for d in range(NDIME)
    ]
    # canonical form: ONE mixed loop (Algorithm 3).  The VEC1 fission
    # into the WORK A / WORK B pair (Algorithm 4) is performed by the
    # LoopFission pass.
    body: tuple[Stmt, ...] = (_loop("ivect", _vec_extent(vs),
                                    work_a + work_b),)
    return Kernel(name="phase1_gather_element", phase=1, body=body)


# ---------------------------------------------------------------------------
# Phase 2 -- gather nodal unknowns and coordinates (Algorithms 1 / 2)
# ---------------------------------------------------------------------------


def phase2(A: dict[str, Array], vs: int) -> Kernel:
    node = _node(A)
    unk_stmt = Assign(R(A["elunk"], "ivect", "inode", "idofn"),
                      Load(Ref(A["unkno"], (node, var("idofn")))))
    old_stmt = Assign(R(A["elold"], "ivect", "inode", "idime"),
                      Load(Ref(A["unkno_old"], (node, var("idime")))))
    cod_stmt = Assign(R(A["elcod"], "ivect", "inode", "idime"),
                      Load(Ref(A["coord"], (node, var("idime")))))
    # canonical form (Algorithm 1): ivect outermost with a *runtime
    # dummy* trip count -- the original vectorization blocker.  The VEC2
    # promotion of VECTOR_DIM to a compile-time parameter and the IVEC2
    # interchange (Algorithm 2, ivect innermost) are performed by the
    # ConstantTripCount and LoopInterchange passes.
    body: tuple[Stmt, ...] = (
        _loop("ivect", _vec_dummy_extent(vs), [
            _loop("inode", PNODE, [
                _loop("idofn", NDOFN, [unk_stmt]),
                _loop("idime", NDIME, [old_stmt]),
                _loop("idime", NDIME, [cod_stmt]),
            ]),
        ]),
    )
    return Kernel(name="phase2_gather_nodal", phase=2, body=body)


# ---------------------------------------------------------------------------
# Phase 3 -- Jacobian / determinant / inverse / Cartesian derivatives
# ---------------------------------------------------------------------------


def phase3(A: dict[str, Array], vs: int) -> Kernel:
    iv = _vec_extent(vs)
    xj = lambda i, j: L(A["xjacm"], "ivect", i, j)

    det_expr = fsum([
        mul(xj(0, 0), sub(mul(xj(1, 1), xj(2, 2)), mul(xj(2, 1), xj(1, 2)))),
        Unary("neg", mul(xj(0, 1), sub(mul(xj(1, 0), xj(2, 2)),
                                       mul(xj(2, 0), xj(1, 2))))),
        mul(xj(0, 2), sub(mul(xj(1, 0), xj(2, 1)), mul(xj(2, 0), xj(1, 1)))),
    ])

    def cofactor(i: int, j: int) -> Expr:
        # inverse[i, j] = cofactor(j, i) / det  (adjugate transpose)
        r = [(j + 1) % 3, (j + 2) % 3]
        c = [(i + 1) % 3, (i + 2) % 3]
        return sub(mul(xj(r[0], c[0]), xj(r[1], c[1])),
                   mul(xj(r[0], c[1]), xj(r[1], c[0])))

    inverse_stmts = [
        Assign(R(A["xjaci"], "ivect", i, j),
               mul(cofactor(i, j), L(A["gpnve"], "ivect")))
        for i in range(NDIME) for j in range(NDIME)
    ]

    body = (
        _loop("igaus", NGAUS, [
            # J_ij = sum_a elcod(a, i) * dN_a/dxi_j
            _loop("idime", NDIME, [
                _loop("jdime", NDIME, [
                    _loop("ivect", iv, [
                        Assign(R(A["xjacm"], "ivect", "idime", "jdime"), C(0.0)),
                    ]),
                ]),
            ]),
            _loop("inode", PNODE, [
                _loop("idime", NDIME, [
                    _loop("jdime", NDIME, [
                        _loop("ivect", iv, [
                            Assign(
                                R(A["xjacm"], "ivect", "idime", "jdime"),
                                mul(L(A["elcod"], "ivect", "inode", "idime"),
                                    L(A["deriv"], "jdime", "inode", "igaus")),
                                accumulate=True,
                            ),
                        ]),
                    ]),
                ]),
            ]),
            _loop("ivect", iv, [
                Assign(R(A["gpdet"], "ivect", "igaus"), det_expr),
            ]),
            _loop("ivect", iv, [
                Assign(R(A["gpvol"], "ivect", "igaus"),
                       mul(L(A["weigp"], "igaus"), L(A["gpdet"], "ivect", "igaus"))),
                # reciprocal determinant, staged in gpnve (scratch reuse,
                # like the Fortran original's temporary).
                Assign(R(A["gpnve"], "ivect"),
                       div(C(1.0), L(A["gpdet"], "ivect", "igaus"))),
            ]),
            _loop("ivect", iv, inverse_stmts),
            # dN_a/dx_i = sum_j (J^-1)_ij^T * dN_a/dxi_j = sum_j xjaci(j,i)...
            _loop("inode", PNODE, [
                _loop("idime", NDIME, [
                    _loop("ivect", iv, [
                        Assign(
                            R(A["gpcar"], "ivect", "idime", "inode", "igaus"),
                            fsum([
                                mul(L(A["xjaci"], "ivect", j, "idime"),
                                    L(A["deriv"], j, "inode", "igaus"))
                                for j in range(NDIME)
                            ]),
                        ),
                    ]),
                ]),
            ]),
        ]),
    )
    return Kernel(name="phase3_jacobian", phase=3, body=body)


# ---------------------------------------------------------------------------
# Phase 4 -- fields at the integration points
# ---------------------------------------------------------------------------


def phase4(A: dict[str, Array], vs: int) -> Kernel:
    iv = _vec_extent(vs)
    body = (
        _loop("igaus", NGAUS, [
            _loop("idime", NDIME, [
                _loop("ivect", iv, [
                    Assign(R(A["gpvel"], "ivect", "idime", "igaus"), C(0.0)),
                ]),
            ]),
            _loop("idime", NDIME, [
                _loop("ivect", iv, [
                    Assign(R(A["gpold"], "ivect", "idime", "igaus"), C(0.0)),
                ]),
            ]),
            _loop("ivect", iv, [
                Assign(R(A["gppre"], "ivect", "igaus"), C(0.0)),
            ]),
            _loop("idime", NDIME, [
                _loop("jdime", NDIME, [
                    _loop("ivect", iv, [
                        Assign(R(A["gpgve"], "ivect", "jdime", "idime", "igaus"),
                               C(0.0)),
                    ]),
                ]),
            ]),
            _loop("inode", PNODE, [
                _loop("idime", NDIME, [
                    _loop("ivect", iv, [
                        Assign(
                            R(A["gpvel"], "ivect", "idime", "igaus"),
                            mul(L(A["shapf"], "inode", "igaus"),
                                L(A["elunk"], "ivect", "inode", "idime")),
                            accumulate=True,
                        ),
                    ]),
                ]),
                _loop("idime", NDIME, [
                    _loop("ivect", iv, [
                        Assign(
                            R(A["gpold"], "ivect", "idime", "igaus"),
                            mul(L(A["shapf"], "inode", "igaus"),
                                L(A["elold"], "ivect", "inode", "idime")),
                            accumulate=True,
                        ),
                    ]),
                ]),
                _loop("ivect", iv, [
                    Assign(
                        R(A["gppre"], "ivect", "igaus"),
                        mul(L(A["shapf"], "inode", "igaus"),
                            L(A["elunk"], "ivect", "inode", 3)),
                        accumulate=True,
                    ),
                ]),
                # velocity gradient du_i/dx_j
                _loop("idime", NDIME, [
                    _loop("jdime", NDIME, [
                        _loop("ivect", iv, [
                            Assign(
                                R(A["gpgve"], "ivect", "jdime", "idime", "igaus"),
                                mul(L(A["gpcar"], "ivect", "jdime", "inode", "igaus"),
                                    L(A["elunk"], "ivect", "inode", "idime")),
                                accumulate=True,
                            ),
                        ]),
                    ]),
                ]),
            ]),
        ]),
    )
    return Kernel(name="phase4_gauss_fields", phase=4, body=body)


# ---------------------------------------------------------------------------
# Phase 5 -- time-integration elemental arrays (stabilization + init)
# ---------------------------------------------------------------------------


def phase5(A: dict[str, Array], vs: int) -> Kernel:
    iv = _vec_extent(vs)
    v0 = lambda d: L(A["gpvel"], "ivect", d, 0)
    body = (
        # |u| at the first integration point.
        _loop("ivect", iv, [
            Assign(R(A["gpnve"], "ivect"),
                   sqrt(fsum([mul(v0(d), v0(d)) for d in range(NDIME)]))),
        ]),
        # tau1 = 1 / (c1 nu / h^2 + c2 rho |u| / h)     (Codina),
        # with the per-element characteristic length gathered in phase 1
        _loop("ivect", iv, [
            Assign(
                R(A["tau1"], "ivect"),
                div(C(1.0),
                    add(div(mul(P("tau_c1"), L(A["elvisc"], "ivect")),
                            mul(L(A["elchale"], "ivect"),
                                L(A["elchale"], "ivect"))),
                        div(mul(P("tau_c2"),
                                mul(L(A["eldens"], "ivect"),
                                    L(A["gpnve"], "ivect"))),
                            L(A["elchale"], "ivect")))),
            ),
        ]),
        # tau2 = h^2 / (c1 tau1)
        _loop("ivect", iv, [
            Assign(R(A["tau2"], "ivect"),
                   div(mul(L(A["elchale"], "ivect"), L(A["elchale"], "ivect")),
                       mul(P("tau_c1"), L(A["tau1"], "ivect")))),
        ]),
        # zero the elemental accumulators for this chunk.
        _loop("inode", PNODE, [
            _loop("jnode", PNODE, [
                _loop("ivect", iv, [
                    Assign(R(A["elauu"], "ivect", "jnode", "inode"), C(0.0)),
                ]),
            ]),
            _loop("idime", NDIME, [
                _loop("ivect", iv, [
                    Assign(R(A["elrbu"], "ivect", "idime", "inode"), C(0.0)),
                ]),
            ]),
            _loop("ivect", iv, [
                Assign(R(A["elrbp"], "ivect", "inode"), C(0.0)),
            ]),
        ]),
    )
    # tau_fact1/2/3 are supplied by the kernel instance (see
    # repro.cfd.kernel_context.stabilization_params).
    return Kernel(name="phase5_time_integration", phase=5, body=body)


# ---------------------------------------------------------------------------
# Phase 6 -- convective term + VMS stabilization (the dominant phase)
# ---------------------------------------------------------------------------


def phase6(A: dict[str, Array], vs: int) -> Kernel:
    iv = _vec_extent(vs)
    gpc = lambda d, n: L(A["gpcar"], "ivect", d, n, "igaus")
    gpv = lambda d: L(A["gpvel"], "ivect", d, "igaus")
    body = (
        _loop("igaus", NGAUS, [
            # advection velocity = resolved velocity + tracked subscale
            _loop("idime", NDIME, [
                _loop("ivect", iv, [
                    Assign(R(A["gpadv"], "ivect", "idime"),
                           add(L(A["gpvel"], "ivect", "idime", "igaus"),
                               mul(C(0.5),
                                   add(L(A["elsgs"], "ivect", "idime", "igaus"),
                                       L(A["elsgs_old"], "ivect", "idime",
                                         "igaus"))))),
                ]),
            ]),
            # gpaux_a = (a . grad) N_a
            _loop("inode", PNODE, [
                _loop("ivect", iv, [
                    Assign(
                        R(A["gpaux"], "ivect", "inode"),
                        fsum([
                            mul(L(A["gpadv"], "ivect", d), gpc(d, "inode"))
                            for d in range(NDIME)
                        ]),
                    ),
                ]),
            ]),
            # momentum residual RHS at the Gauss point:
            # rho*dtinv*u_i - rho*(u . grad)u_i
            _loop("idime", NDIME, [
                _loop("ivect", iv, [
                    Assign(
                        R(A["gprhs"], "ivect", "idime"),
                        sub(
                            # BDF1 time term uses the previous-step velocity
                            mul(L(A["eldens"], "ivect"),
                                mul(L(A["eldtinv"], "ivect"),
                                    L(A["gpold"], "ivect", "idime", "igaus"))),
                            mul(L(A["eldens"], "ivect"),
                                fsum([
                                    mul(gpv(j),
                                        L(A["gpgve"], "ivect", j, "idime", "igaus"))
                                    for j in range(NDIME)
                                ])),
                        ),
                    ),
                ]),
            ]),
            # Galerkin + SUPG convection matrix:
            # elauu_ji += w rho (a.grad N_i)(N_j + tau1 (a.grad N_j))
            _loop("inode", PNODE, [
                _loop("jnode", PNODE, [
                    _loop("ivect", iv, [
                        Assign(
                            R(A["elauu"], "ivect", "jnode", "inode"),
                            mul(mul(L(A["gpvol"], "ivect", "igaus"),
                                    L(A["eldens"], "ivect")),
                                mul(L(A["gpaux"], "ivect", "inode"),
                                    add(L(A["shapf"], "jnode", "igaus"),
                                        mul(L(A["tau1"], "ivect"),
                                            L(A["gpaux"], "ivect", "jnode"))))),
                            accumulate=True,
                        ),
                    ]),
                ]),
            ]),
            # grad-div stabilization: elauu_ji += w tau2 (div N_j)(div N_i)
            _loop("inode", PNODE, [
                _loop("jnode", PNODE, [
                    _loop("ivect", iv, [
                        Assign(
                            R(A["elauu"], "ivect", "jnode", "inode"),
                            mul(mul(L(A["gpvol"], "ivect", "igaus"),
                                    L(A["tau2"], "ivect")),
                                mul(fsum([gpc(d, "jnode") for d in range(NDIME)]),
                                    fsum([gpc(d, "inode") for d in range(NDIME)]))),
                            accumulate=True,
                        ),
                    ]),
                ]),
            ]),
            # momentum RHS: elrbu_i += w rhs_d (N_i + tau1 (a.grad N_i))
            _loop("inode", PNODE, [
                _loop("idime", NDIME, [
                    _loop("ivect", iv, [
                        Assign(
                            R(A["elrbu"], "ivect", "idime", "inode"),
                            mul(mul(L(A["gpvol"], "ivect", "igaus"),
                                    L(A["gprhs"], "ivect", "idime")),
                                add(L(A["shapf"], "inode", "igaus"),
                                    mul(L(A["tau1"], "ivect"),
                                        L(A["gpaux"], "ivect", "inode")))),
                            accumulate=True,
                        ),
                    ]),
                ]),
            ]),
            # continuity RHS (pressure stabilization):
            # elrbp_a += w tau1 (grad N_a . rhs)
            _loop("inode", PNODE, [
                _loop("ivect", iv, [
                    Assign(
                        R(A["elrbp"], "ivect", "inode"),
                        mul(mul(L(A["gpvol"], "ivect", "igaus"),
                                L(A["tau1"], "ivect")),
                            fsum([
                                mul(gpc(d, "inode"), L(A["gprhs"], "ivect", d))
                                for d in range(NDIME)
                            ])),
                        accumulate=True,
                    ),
                ]),
            ]),
        ]),
    )
    return Kernel(name="phase6_convective", phase=6, body=body)


# ---------------------------------------------------------------------------
# Phase 7 -- viscous term (semi-implicit elemental matrices)
# ---------------------------------------------------------------------------


def phase7(A: dict[str, Array], vs: int) -> Kernel:
    iv = _vec_extent(vs)
    gpc = lambda d, n: L(A["gpcar"], "ivect", d, n, "igaus")

    def divN(n: str) -> Expr:
        return fsum([gpc(d, n) for d in range(NDIME)])

    body = (
        _loop("igaus", NGAUS, [
            # precompute div N_a at this Gauss point (gpaux is free again
            # after phase 6, the usual Fortran scratch reuse)
            _loop("inode", PNODE, [
                _loop("ivect", iv, [
                    Assign(R(A["gpaux"], "ivect", "inode"), divN("inode")),
                ]),
            ]),
            # full stress form at block level:
            # elauu_ji += w mu [ (grad N_i . grad N_j)
            #                    + 1/3 (div N_i)(div N_j) ]
            # (Laplacian + bulk/cross term of the symmetric gradient);
            # the FP density of this loop is what lets the compiler
            # vectorize phase 7 even at VECTOR_SIZE = 16 (Table 4).
            _loop("inode", PNODE, [
                _loop("jnode", PNODE, [
                    _loop("ivect", iv, [
                        Assign(
                            R(A["elauu"], "ivect", "jnode", "inode"),
                            mul(mul(L(A["gpvol"], "ivect", "igaus"),
                                    L(A["elvisc"], "ivect")),
                                add(
                                    fsum([
                                        mul(gpc(d, "inode"), gpc(d, "jnode"))
                                        for d in range(NDIME)
                                    ]),
                                    mul(C(1.0 / 3.0),
                                        mul(L(A["gpaux"], "ivect", "inode"),
                                            L(A["gpaux"], "ivect", "jnode"))),
                                )),
                            accumulate=True,
                        ),
                    ]),
                ]),
            ]),
        ]),
    )
    return Kernel(name="phase7_viscous", phase=7, body=body)


# ---------------------------------------------------------------------------
# Phase 8 -- valid-element check + global scatter
# ---------------------------------------------------------------------------


def phase8(A: dict[str, Array], vs: int) -> Kernel:
    node = _node(A)
    # elauu(ivect, jnode, inode) is the (test=jnode, trial=inode) entry;
    # elpos(e, r, c) holds the CSR slot of (row=lnods(e,r), col=lnods(e,c)).
    pos = Indirect(A["elpos"], (ELEM, var("jnode"), var("inode")))
    body = (
        _loop("ivect", _vec_extent(vs), [
            If(
                Cond("eq", L(A["ltype"], ELEM), C(HEX08)),
                (
                    _loop("inode", PNODE, [
                        _loop("idime", NDIME, [
                            Assign(Ref(A["rhsid"], (node, var("idime"))),
                                   L(A["elrbu"], "ivect", "idime", "inode"),
                                   accumulate=True),
                        ]),
                        Assign(Ref(A["rhsid"], (node, Affine((), NDIME))),
                               L(A["elrbp"], "ivect", "inode"),
                               accumulate=True),
                        _loop("jnode", PNODE, [
                            Assign(Ref(A["amatr"], (pos,)),
                                   L(A["elauu"], "ivect", "jnode", "inode"),
                                   accumulate=True),
                        ]),
                    ]),
                ),
                est_taken=0.98,
            ),
        ]),
    )
    return Kernel(name="phase8_scatter", phase=8, body=body)


#: phase builders in execution order.
PHASE_BUILDERS = (phase1, phase2, phase3, phase4, phase5, phase6, phase7, phase8)

#: human-readable phase names, used by the observability layer (span
#: labels, Paraver .pcf states, summary sections) -- the paper's Table-3
#: row captions.
PHASE_NAMES: dict[int, str] = {
    1: "gather element data",
    2: "gather nodal unknowns",
    3: "jacobian + cartesian derivatives",
    4: "gauss-point fields",
    5: "stabilization + accumulator init",
    6: "convective + VMS (dominant)",
    7: "viscous term",
    8: "valid-element check + scatter",
}


def build_baseline_kernels(arrays: dict[str, Array],
                           vector_size: int) -> list[Kernel]:
    """All eight phase kernels in canonical baseline form (pre-pass)."""
    return [builder(arrays, vector_size) for builder in PHASE_BUILDERS]
