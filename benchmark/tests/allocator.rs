//! The counting allocator counts. Alone in its test binary, so that no
//! other test allocates while it looks.

use react_benchmark::alloc::allocations;
use std::hint::black_box;

#[test]
fn every_heap_allocation_is_counted() {
    let before = allocations();
    let boxes: Vec<Box<u64>> = (0..100).map(Box::new).collect();
    black_box(&boxes);
    let after = allocations();
    // 100 boxes plus the vector's buffer (collect may grow it).
    assert!(after - before >= 101, "counted {}", after - before);
    drop(boxes);
    let grown = {
        let before = allocations();
        let mut v: Vec<u8> = Vec::with_capacity(16);
        v.resize(4096, 1); // realloc
        black_box(&v);
        allocations() - before
    };
    assert!(grown >= 2, "alloc + realloc counted {grown}");
}
