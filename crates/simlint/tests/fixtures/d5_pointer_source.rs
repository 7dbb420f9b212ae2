//! D5's pointer source as clippy configuration: every way safe code
//! makes a raw pointer from a reference is refused where it is made,
//! whatever the address later feeds.

use std::sync::Arc;

pub fn slice_address(hosts: &[u32]) -> usize {
    hosts.as_ptr() as usize // line 8: slice::as_ptr
}

pub fn vec_address(hosts: Vec<u32>) -> usize {
    hosts.as_ptr() as usize // line 12: Vec::as_ptr
}

pub fn str_address(name: &str) -> usize {
    name.as_ptr() as usize // line 16: str::as_ptr
}

pub fn arc_address(shared: &Arc<u32>) -> usize {
    Arc::as_ptr(shared) as usize // line 20: Arc::as_ptr
}

pub fn macro_address(x: &u32) -> usize {
    std::ptr::addr_of!(*x) as usize // line 24: addr_of!
}

pub fn from_ref_address(x: &u32) -> usize {
    std::ptr::from_ref(x) as usize // line 28: ptr::from_ref
}

pub fn from_mut_address(x: &mut u32) -> usize {
    std::ptr::from_mut(x) as usize // line 32: ptr::from_mut
}

pub fn cast_address(x: &u32) -> usize {
    x as *const u32 as usize // line 36: ref_as_ptr
}

pub fn borrow_address(x: u32) -> usize {
    &x as *const u32 as usize // line 40: borrow_as_ptr
}

pub fn same_instance(a: &Arc<u32>, b: &Arc<u32>) -> bool {
    Arc::ptr_eq(a, b) // compares, yields no address: clean
}

// The two gaps clippy shares with D5 (DESIGN.md §3 item 10): neither
// fires.

pub fn coerced_address(x: &u32) -> usize {
    let p: *const u32 = x; // a coercion: no call, no cast
    p as usize
}

pub fn printed_address(x: &u32) -> String {
    format!("{x:p}")
}
