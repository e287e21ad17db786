fn same_line(v: Option<u32>) -> u32 { v.unwrap() } // xlint::allow(P1, fixture shows a justified same-line suppression)

// xlint::allow(P1, fixture shows a next-line suppression)
fn next_line(v: Option<u32>) -> u32 { v.expect("present") }

// xlint::allow(Q9, no such rule)
fn unknown_rule() {}

// xlint::allow(F1, nothing on the next line violates F1)
fn stale_pragma() {}

// xlint::allow(P1)
fn reasonless_pragma() {}
