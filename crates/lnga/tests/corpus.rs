//! Front-end corpus tests: a battery of valid and invalid `L_NGA`
//! programs exercising the grammar and the type rules end to end.

use itg_lnga::{frontend, parse};

fn ok(src: &str) {
    frontend(src).unwrap_or_else(|e| panic!("expected to check, got: {e}\n{src}"));
}

fn fails_with(src: &str, needle: &str) {
    let err = frontend(src).expect_err("expected failure").to_string();
    assert!(
        err.contains(needle),
        "error `{err}` does not mention `{needle}`"
    );
}

#[test]
fn minimal_program() {
    ok("Vertex (id, active, nbrs)
        Initialize (u): { }
        Traverse (u): { }
        Update (u): { }");
}

#[test]
fn all_primitive_types_declare() {
    ok("Vertex (id, active, nbrs,
                a: bool, b: int, c: long, d: float, e: double,
                f: Array<double, 8>,
                g: Accm<int, SUM>, h: Accm<long, MIN>, i: Accm<double, MAX>,
                j: Accm<bool, OR>, k: Accm<bool, AND>, l: Accm<float, PROD>)
        Initialize (u): { }
        Traverse (u): { }
        Update (u): { }");
}

#[test]
fn comments_everywhere() {
    ok("// leading comment
        Vertex (id, active, nbrs /* trailing */, x: long)
        Initialize (u): { u.x = 1; /* mid */ }
        Traverse (u): { }
        Update (u): { } // done");
}

#[test]
fn deeply_nested_traversal() {
    ok("Vertex (id, active, nbrs)
        GlobalVariable (c: Accm<long, SUM>)
        Initialize (u1): { u1.active = true; }
        Traverse (u1): {
            For u2 in u1.nbrs Where (u1 < u2) {
                For u3 in u2.nbrs {
                    For u4 in u3.nbrs {
                        For u5 in u4.nbrs Where (u5 == u1) { c.Accumulate(1); }
                    }
                }
            }
        }
        Update (u1): { }");
}

#[test]
fn mixed_direction_adjacency() {
    ok("Vertex (id, active, out_nbrs, in_nbrs, out_degree, in_degree,
                s: Accm<long, SUM>)
        Initialize (u): { }
        Traverse (u): {
            For v in u.out_nbrs { v.s.Accumulate(u.in_degree); }
            For w in u.in_nbrs { w.s.Accumulate(u.out_degree); }
        }
        Update (u): { }");
}

#[test]
fn else_if_chains() {
    ok("Vertex (id, active, nbrs, x: long)
        Initialize (u): {
            If (u.id > 10) { u.x = 1; }
            Else { If (u.id > 5) { u.x = 2; } Else { u.x = 3; } }
        }
        Traverse (u): { }
        Update (u): { }");
}

#[test]
fn unary_operators_and_precedence() {
    ok("Vertex (id, active, nbrs, x: long, b: bool)
        Initialize (u): {
            u.x = -u.id * 2 + 4 % 3;
            u.b = !(u.id > 3) && true || false;
        }
        Traverse (u): { }
        Update (u): { }");
}

#[test]
fn where_must_be_boolean() {
    fails_with(
        "Vertex (id, active, nbrs)
         Initialize (u): { }
         Traverse (u): { For v in u.nbrs Where (u.id + 1) { } }
         Update (u): { }",
        "boolean",
    );
}

#[test]
fn duplicate_attribute_rejected() {
    fails_with(
        "Vertex (id, active, nbrs, x: long, x: double)
         Initialize (u): { }
         Traverse (u): { }
         Update (u): { }",
        "duplicate",
    );
}

#[test]
fn shadowing_vertex_var_with_let_rejected() {
    fails_with(
        "Vertex (id, active, nbrs)
         Initialize (u): { Let u = 3; }
         Traverse (u): { }
         Update (u): { }",
        "shadows",
    );
}

#[test]
fn rebinding_loop_variable_rejected() {
    fails_with(
        "Vertex (id, active, nbrs)
         Initialize (u): { }
         Traverse (u): { For v in u.nbrs { For v in u.nbrs { } } }
         Update (u): { }",
        "already bound",
    );
}

#[test]
fn accumulate_into_non_accumulator_rejected() {
    fails_with(
        "Vertex (id, active, nbrs, x: long)
         Initialize (u): { }
         Traverse (u): { For v in u.nbrs { v.x.Accumulate(1); } }
         Update (u): { }",
        "not an accumulator",
    );
}

#[test]
fn update_accumulating_into_a_global_rejected() {
    let err = frontend(
        "Vertex (id, active, nbrs, s: Accm<long, SUM>)
         GlobalVariable (touched: Accm<long, SUM>)
         Initialize (u): { u.active = true; }
         Traverse (u): { For v in u.nbrs { v.s.Accumulate(1); } }
         Update (u): {
            touched.Accumulate(1);
         }",
    )
    .unwrap_err();
    assert_eq!(
        err.to_string(),
        "type error at line 6: Update may not accumulate into global `touched` \
         (globals are folded from Traverse contributions only)"
    );
}

#[test]
fn assigning_neighbor_attrs_rejected() {
    // Only the UDF parameter's attributes can be assigned (Update).
    fails_with(
        "Vertex (id, active, nbrs, x: long)
         Initialize (u): { }
         Traverse (u): { }
         Update (u): { v.x = 1; }",
        "only the UDF parameter",
    );
}

#[test]
fn bad_accm_operator_rejected() {
    let err = parse(
        "Vertex (id, active, nbrs, s: Accm<long, MEDIAN>)
         Initialize (u): { } Traverse (u): { } Update (u): { }",
    )
    .unwrap_err();
    assert!(err.to_string().contains("Abelian"));
}

#[test]
fn accumulators_outside_their_algebra_rejected() {
    // SUM and PROD fold numbers, OR and AND booleans; MIN and MAX fold
    // every prim. The error sits on the declaration's line, for a vertex
    // and for a global accumulator alike.
    let cases = [
        ("Accm<bool, SUM>", "SUM folds int, long, float or double values only"),
        ("Accm<bool, PROD>", "PROD folds int, long, float or double values only"),
        ("Accm<long, OR>", "OR folds bool values only"),
        ("Accm<int, AND>", "AND folds bool values only"),
        ("Accm<double, OR>", "OR folds bool values only"),
    ];
    let body = "Initialize (u): { }\nTraverse (u): { }\nUpdate (u): { }";
    for (ty, needle) in cases {
        let vertex = format!("Vertex (id, active, nbrs,\n        s: {ty})\n{body}");
        let global = format!("Vertex (id, active, nbrs)\nGlobalVariable (\n  g: {ty})\n{body}");
        for (src, line) in [(vertex, 2), (global, 3)] {
            let err = frontend(&src).expect_err("inadmissible accumulator");
            assert_eq!(err.line, line, "{ty}: {err}");
            assert!(err.to_string().contains(needle), "{ty}: {err}");
        }
    }
    ok("Vertex (id, active, nbrs, a: Accm<bool, MIN>, b: Accm<bool, MAX>, c: Accm<int, PROD>)
        GlobalVariable (g: Accm<float, MIN>, h: Accm<bool, MAX>)
        Initialize (u): { }
        Traverse (u): { }
        Update (u): { }");
}

#[test]
fn array_size_must_be_positive() {
    let err = parse(
        "Vertex (id, active, nbrs, a: Array<long, 0>)
         Initialize (u): { } Traverse (u): { } Update (u): { }",
    )
    .unwrap_err();
    assert!(err.to_string().contains("positive"));
}

#[test]
fn spans_point_at_the_problem() {
    let err = frontend(
        "Vertex (id, active, nbrs)\nInitialize (u): { }\nTraverse (u): {\n  bogus.Accumulate(1);\n}\nUpdate (u): { }",
    )
    .unwrap_err();
    assert_eq!(err.line, 4);
}

#[test]
fn global_read_in_update_only() {
    ok("Vertex (id, active, nbrs, x: long)
        GlobalVariable (g: Accm<long, SUM>)
        Initialize (u): { }
        Traverse (u): { g.Accumulate(1); }
        Update (u): { u.x = g; }");
    fails_with(
        "Vertex (id, active, nbrs, s: Accm<long, SUM>)
         GlobalVariable (g: Accm<long, SUM>)
         Initialize (u): { }
         Traverse (u): { For v in u.nbrs { v.s.Accumulate(g); } }
         Update (u): { }",
        "Update",
    );
}

#[test]
fn array_index_must_be_an_integer() {
    ok("Vertex (id, active, nbrs, emb: Array<double, 4>, i: int, s: Accm<double, SUM>)
        Initialize (u): { }
        Traverse (u): { For v in u.nbrs { v.s.Accumulate(u.emb[u.i] + u.emb[u.id - 1]); } }
        Update (u): { }");
    let bad = "Vertex (id, active, nbrs, emb: Array<double, 4>, s: Accm<double, SUM>)
               Initialize (u): { }
               Traverse (u): { For v in u.nbrs { v.s.Accumulate(u.emb[0.5]); } }
               Update (u): { }";
    fails_with(bad, "array index must be an `int` or `long`");
    assert_eq!(frontend(bad).unwrap_err().line, 3);
}
