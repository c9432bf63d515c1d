//! Cooperative virtual processes: the execution substrate under [`crate::sim`].
//!
//! The x-kernel maps every shepherd onto a light-weight kernel process; until
//! this module existed, the reproduction faked that with one OS thread per
//! simulated process (512 KiB kernel stacks, a thread handoff per switch).
//! `vproc` replaces the fake with the real thing: shepherd processes are
//! *virtual* processes multiplexed cooperatively on the scheduler's own
//! thread, in two flavors:
//!
//! * [`Coro`] — a stackful coroutine. Existing protocol code blocks deep
//!   inside arbitrary call chains (`SharedSema::p` under five protocol layers), so
//!   the only transparent encoding of "suspend here, resume later" is a real
//!   stack plus a context switch. The switch is ~12 instructions of inline
//!   assembly saving exactly the callee-saved registers; stacks are `mmap`
//!   regions with a `PROT_NONE` guard page, 512 KiB usable — the same
//!   budget the old OS threads had, minus the kernel scheduler — and a
//!   finished coroutine's stack and bookkeeping are kept, per thread, for
//!   the next spawn.
//! * [`VProc`] — a stackless state machine. New code that wants snapshots or
//!   million-process populations implements `resume` as an explicit
//!   continuation: each call runs to the next declared blocking point and
//!   returns a [`VStep`] naming it. No stack exists while suspended, so a
//!   suspended machine is ~hundreds of bytes, clonable via [`VProc::fork`],
//!   and round-trips through [`crate::sim::Sim::snapshot`].
//!
//! Both flavors block only at the points xcheck already declares — semaphore
//! wait, timer expiry (which is also how wire delivery parks a process) —
//! and both are subject to *fuel*: a deterministic per-process budget of
//! charged operations (coroutines) or resumes (machines). A runaway process
//! exhausts its fuel at a deterministic instant of the schedule and is
//! killed reproducibly, which turns "the test hangs" into "the report says
//! `fuel_exhausted: 1` at the same event on every run".
//!
//! A coroutine is a stack, not a process. The scheduler's run loop is itself
//! the body of one (a *driver*; DESIGN.md §11, "Who runs the loop"): a fresh
//! thunk is a plain call on the driver's stack, and only a body that blocks
//! keeps the stack it is on — the loop moves to another driver. So a
//! coroutine is started per *run* and per *process that blocks*, never per
//! event, and its fuel budget is whatever the driver last set for the body
//! it is running (`set_fuel`).
//!
//! Nothing here spawns a thread. The unsafe surface (the context switch and
//! the stack mapping) is confined to this module; the scheduler in
//! [`crate::sim`] drives it through five safe entry points: [`Coro::new`],
//! [`Coro::resume`], [`Coro::retire`], [`yield_now`] and `set_fuel`.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use crate::cost::Nanos;
use crate::sim::Ctx;

// ---------------------------------------------------------------------------
// Raw stack mapping.
// ---------------------------------------------------------------------------

/// Minimal glibc surface for stack mapping; declared directly so the
/// workspace stays free of a `libc` dependency.
mod sys {
    use std::ffi::c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
        pub fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        pub fn sysconf(name: i32) -> i64;
    }

    pub const PROT_NONE: i32 = 0;
    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MAP_ANONYMOUS: i32 = 0x20;
    pub const SC_PAGESIZE: i32 = 30;
}

/// Usable bytes of a coroutine stack (the guard page is on top of this).
/// Matches the 512 KiB the retired per-process OS threads were given.
pub const STACK_SIZE: usize = 512 * 1024;

fn page_size() -> usize {
    static PAGE: OnceLock<usize> = OnceLock::new();
    *PAGE.get_or_init(|| {
        // SAFETY: sysconf(_SC_PAGESIZE) has no preconditions.
        let n = unsafe { sys::sysconf(sys::SC_PAGESIZE) };
        usize::try_from(n).unwrap_or(4096).max(4096)
    })
}

/// An `mmap`-backed coroutine stack: a `PROT_NONE` guard page at the low
/// end, then `usable` read-write bytes. Overflow faults deterministically on
/// the guard instead of corrupting a neighbor.
struct Stack {
    base: *mut u8,
    len: usize,
}

impl Stack {
    /// Maps a stack with `usable` bytes (rounded up to whole pages) plus one
    /// guard page.
    ///
    /// # Panics
    ///
    /// Panics if the kernel refuses the mapping — address space or the
    /// `vm.max_map_count` budget is exhausted, which for this engine is a
    /// misconfigured experiment, not a recoverable condition.
    fn new(usable: usize) -> Stack {
        let page = page_size();
        let usable = usable.div_ceil(page) * page;
        let len = usable + page;
        // SAFETY: fresh anonymous private mapping; no aliasing to violate.
        let base = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(
            base as isize != -1 && !base.is_null(),
            "vproc: mmap of a {len}-byte coroutine stack failed"
        );
        // SAFETY: `base` is ours and page-aligned; protecting the lowest
        // page makes overflow fault instead of scribble.
        let rc = unsafe { sys::mprotect(base, page, sys::PROT_NONE) };
        assert_eq!(rc, 0, "vproc: guard-page mprotect failed");
        MAPPED.with(|n| n.set(n.get() + 1));
        Stack {
            base: base.cast(),
            len,
        }
    }

    /// The high end of the mapping — the initial stack pointer (stacks grow
    /// down). Page-aligned, hence 16-byte aligned as both ABIs require.
    fn top(&self) -> *mut u8 {
        // SAFETY: base..base+len is our mapping; one-past-the-end is a
        // valid pointer to compute.
        unsafe { self.base.add(self.len) }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: exactly the region mmap returned.
        unsafe {
            sys::munmap(self.base.cast(), self.len);
        }
        // A thread being torn down has no counter left.
        let _ = MAPPED.try_with(|n| n.set(n.get().saturating_sub(1)));
    }
}

// ---------------------------------------------------------------------------
// The context switch.
// ---------------------------------------------------------------------------
//
// `xk_vproc_switch(save, target)` pushes the callee-saved registers of the
// running context, stores the resulting stack pointer through `save`, sets
// the stack pointer to `target`, pops the same registers, and returns —
// thereby "returning" on the other context. A freshly crafted stack is laid
// out so that the first switch into it pops zeroed registers (plus the
// argument register) and "returns" into `xk_vproc_entry`, which calls the
// Rust entry with the coroutine pointer.
//
// Only callee-saved integer registers are switched; the FP control words
// never change under this workspace's code (no FFI touches them), and
// caller-saved state is dead across a call by definition.

#[cfg(target_arch = "x86_64")]
std::arch::global_asm!(
    ".text",
    ".globl xk_vproc_switch",
    ".p2align 4",
    ".type xk_vproc_switch, @function",
    "xk_vproc_switch:",
    "push rbp",
    "push rbx",
    "push r12",
    "push r13",
    "push r14",
    "push r15",
    "mov [rdi], rsp",
    "mov rsp, rsi",
    "pop r15",
    "pop r14",
    "pop r13",
    "pop r12",
    "pop rbx",
    "pop rbp",
    "ret",
    ".size xk_vproc_switch, . - xk_vproc_switch",
    ".globl xk_vproc_entry",
    ".p2align 4",
    ".type xk_vproc_entry, @function",
    "xk_vproc_entry:",
    // r12 carries the CoroInner pointer (planted by Coro::new); rbp is
    // zeroed to terminate frame walks at the coroutine boundary.
    "mov rdi, r12",
    "xor ebp, ebp",
    "call xk_vproc_entry_rust",
    "ud2",
    ".size xk_vproc_entry, . - xk_vproc_entry",
);

#[cfg(target_arch = "aarch64")]
std::arch::global_asm!(
    ".text",
    ".globl xk_vproc_switch",
    ".p2align 2",
    "xk_vproc_switch:",
    "sub sp, sp, #160",
    "stp x19, x20, [sp, #0]",
    "stp x21, x22, [sp, #16]",
    "stp x23, x24, [sp, #32]",
    "stp x25, x26, [sp, #48]",
    "stp x27, x28, [sp, #64]",
    "stp x29, x30, [sp, #80]",
    "stp d8, d9, [sp, #96]",
    "stp d10, d11, [sp, #112]",
    "stp d12, d13, [sp, #128]",
    "stp d14, d15, [sp, #144]",
    "mov x9, sp",
    "str x9, [x0]",
    "mov x9, x1",
    "mov sp, x9",
    "ldp x19, x20, [sp, #0]",
    "ldp x21, x22, [sp, #16]",
    "ldp x23, x24, [sp, #32]",
    "ldp x25, x26, [sp, #48]",
    "ldp x27, x28, [sp, #64]",
    "ldp x29, x30, [sp, #80]",
    "ldp d8, d9, [sp, #96]",
    "ldp d10, d11, [sp, #112]",
    "ldp d12, d13, [sp, #128]",
    "ldp d14, d15, [sp, #144]",
    "add sp, sp, #160",
    "ret",
    ".globl xk_vproc_entry",
    ".p2align 2",
    "xk_vproc_entry:",
    // x19 carries the CoroInner pointer; clear fp/lr to end frame walks.
    "mov x0, x19",
    "mov x29, xzr",
    "mov x30, xzr",
    "bl xk_vproc_entry_rust",
    "brk #0",
);

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
compile_error!("xkernel::vproc implements its context switch for x86_64 and aarch64 only");

extern "C" {
    fn xk_vproc_switch(save: *mut *mut u8, target: *mut u8);
    /// Never called from Rust — its address seeds crafted initial frames.
    fn xk_vproc_entry();
}

// ---------------------------------------------------------------------------
// Stackful coroutines.
// ---------------------------------------------------------------------------

/// Heap-pinned coroutine state. The crafted initial frame embeds a pointer
/// to this struct, so it must never move; [`Coro`] keeps it boxed.
struct CoroInner {
    /// Saved stack pointer of the suspended coroutine.
    coro_sp: *mut u8,
    /// Saved stack pointer of whoever called [`Coro::resume`].
    parent_sp: *mut u8,
    /// Set by the entry shim when the body has returned.
    finished: bool,
    /// The body and the context it is handed; taken by the entry shim on
    /// first resume.
    start: Option<(Body, Ctx)>,
    /// The payload of the panic that ended the body, if one did.
    panic: Option<Box<dyn Any + Send>>,
    /// Remaining fuel (charged operations) of the body running on this
    /// stack; `u64::MAX` means unlimited. See `set_fuel`.
    fuel_left: u64,
    /// What the latest [`Coro::resume`] handed in, for [`yield_now`] to
    /// hand out.
    token: u64,
    /// The stack this coroutine runs on.
    stack: Stack,
}

/// What a coroutine runs: the scheduler's run loop, or a test's closure.
/// The context comes beside the body, not captured in it, so that a body
/// with nothing to capture — the run loop is a plain function — is a box of
/// no bytes and starting a coroutine allocates nothing.
pub type Body = Box<dyn FnOnce(Ctx) + 'static>;

/// Upper bound on a thread's idle coroutines (each a 512 KiB stack plus
/// guard page). Beyond this, retired coroutines are unmapped, not kept.
pub const IDLE_CAP: usize = 256;

thread_local! {
    /// The coroutine currently executing on this thread (null on the
    /// thread's own stack, outside any run). Set for the duration of every
    /// resume.
    static CURRENT: Cell<*mut CoroInner> = const { Cell::new(std::ptr::null_mut()) };

    /// This thread's retired coroutines, kept for reuse. A simulation runs
    /// on one thread at a time, so a spawn takes no lock, and a fresh
    /// simulation on a warmed thread maps and allocates nothing.
    static IDLE: RefCell<Vec<Coro>> = const { RefCell::new(Vec::new()) };

    /// Context switches made and coroutines started on this thread; see
    /// `counts`.
    static SWITCHES: Cell<u64> = const { Cell::new(0) };
    static STARTS: Cell<u64> = const { Cell::new(0) };
    /// Stacks this thread has mapped and nobody has unmapped yet; see
    /// `stacks`.
    static MAPPED: Cell<usize> = const { Cell::new(0) };
}

/// `(switches, starts)`: the context switches this thread has made and the
/// coroutines it has started, ever. Exact for a given schedule on every
/// host and build, which is what lets `tests/events_per_call.rs` hold the
/// engine to them where host time cannot judge.
#[doc(hidden)]
pub fn counts() -> (u64, u64) {
    (SWITCHES.with(Cell::get), STARTS.with(Cell::get))
}

/// `(idle, mapped)`: the retired coroutines this thread keeps for reuse
/// (at most [`IDLE_CAP`]) and the stacks it has mapped that are still
/// mapped, idle ones included. For the tests that a population of blocked
/// processes gives its stacks back.
#[doc(hidden)]
pub fn stacks() -> (usize, usize) {
    (
        IDLE.with(|idle| idle.borrow().len()),
        MAPPED.with(Cell::get),
    )
}

/// The Rust side of the entry shim: runs the body, catching a panic so no
/// unwind ever reaches the crafted frame below it, marks the coroutine
/// finished, and switches back to the resumer.
#[no_mangle]
extern "C" fn xk_vproc_entry_rust(inner: *mut CoroInner) -> ! {
    // SAFETY: `inner` is the pinned CoroInner this stack was crafted with;
    // the resumer is suspended, so we hold exclusive access.
    let inner = unsafe { &mut *inner };
    let (body, ctx) = inner.start.take().expect("coroutine entered twice");
    inner.panic = catch_unwind(AssertUnwindSafe(move || body(ctx))).err();
    inner.finished = true;
    // SAFETY: parent_sp was saved by the resume that ran us.
    unsafe {
        xk_vproc_switch(&mut inner.coro_sp, inner.parent_sp);
    }
    unreachable!("a finished coroutine was resumed");
}

/// A stackful cooperative coroutine: `resume` runs it until it finishes or
/// calls [`yield_now`]; a yielded coroutine is plain suspended memory until
/// the next `resume`. Exactly one coroutine runs per OS thread at a time
/// (the simulator guarantees one per *simulation*).
pub struct Coro {
    inner: Box<CoroInner>,
}

impl Coro {
    /// Crafts a coroutine that will run `body(ctx)` with an unlimited fuel
    /// budget (see `set_fuel`), on a [`STACK_SIZE`] stack — one of this
    /// thread's idle coroutines if it has any, else freshly mapped.
    pub fn new(body: Body, ctx: Ctx) -> Coro {
        STARTS.with(|n| n.set(n.get() + 1));
        let mut inner = match IDLE.with(|idle| idle.borrow_mut().pop()) {
            Some(idle) => idle.inner,
            None => Box::new(CoroInner {
                coro_sp: std::ptr::null_mut(),
                parent_sp: std::ptr::null_mut(),
                finished: false,
                start: None,
                panic: None,
                fuel_left: 0,
                token: 0,
                stack: Stack::new(STACK_SIZE),
            }),
        };
        inner.finished = false;
        inner.start = Some((body, ctx));
        inner.fuel_left = u64::MAX;
        let arg = std::ptr::addr_of_mut!(*inner) as u64;
        let top = inner.stack.top();
        // Craft the initial frame the switch will "return" through; see the
        // assembly above for the layout contract.
        #[cfg(target_arch = "x86_64")]
        // SAFETY: all stores land inside the mapped usable region just
        // below `top`, which holds no live frame: the stack is fresh, or
        // its previous coroutine finished.
        unsafe {
            let f = |slots_down: usize, v: u64| {
                let p = top.sub(8 * slots_down) as *mut u64;
                p.write(v);
            };
            f(1, xk_vproc_entry as *const () as usize as u64); // ret target
            f(2, 0); // rbp
            f(3, 0); // rbx
            f(4, arg); // r12 = CoroInner
            f(5, 0); // r13
            f(6, 0); // r14
            f(7, 0); // r15
            inner.coro_sp = top.sub(8 * 7);
        }
        #[cfg(target_arch = "aarch64")]
        // SAFETY: as above — the 160-byte frame sits inside the mapping.
        unsafe {
            let sp = top.sub(160);
            std::ptr::write_bytes(sp, 0, 160);
            (sp as *mut u64).write(arg); // x19 = CoroInner
            (sp.add(88) as *mut u64).write(xk_vproc_entry as *const () as usize as u64); // x30
            inner.coro_sp = sp;
        }
        Coro { inner }
    }

    /// Runs the coroutine until it yields or finishes; returns `true` when
    /// finished. `token` is what the [`yield_now`] this resume returns from
    /// hands the coroutine (the first resume's token goes unseen). Must not
    /// be called on a finished coroutine.
    pub fn resume(&mut self, token: u64) -> bool {
        assert!(!self.inner.finished, "resume of a finished coroutine");
        self.inner.token = token;
        // In now, and back out when the coroutine yields or finishes.
        SWITCHES.with(|n| n.set(n.get() + 2));
        let inner: *mut CoroInner = std::ptr::addr_of_mut!(*self.inner);
        let prev = CURRENT.with(|c| c.replace(inner));
        // SAFETY: coro_sp points at a validly crafted or previously saved
        // frame on this coroutine's private stack.
        unsafe {
            xk_vproc_switch(&mut (*inner).parent_sp, (*inner).coro_sp);
        }
        CURRENT.with(|c| c.set(prev));
        self.inner.finished
    }

    /// Retires a finished coroutine: returns the payload of the panic that
    /// ended its body, if one did, and keeps its stack and bookkeeping for
    /// this thread's next [`Coro::new`] (or unmaps them if the thread
    /// already holds [`IDLE_CAP`], or is shutting down).
    ///
    /// # Panics
    ///
    /// Panics if the coroutine has not finished — its stack still holds
    /// live frames.
    pub fn retire(mut self) -> Option<Box<dyn Any + Send>> {
        assert!(self.inner.finished, "retiring a suspended coroutine");
        let panic = self.inner.panic.take();
        // On `Err` the thread's idle list is already destroyed; `self` is
        // dropped with the unrun closure.
        let _ = IDLE.try_with(|idle| {
            let mut idle = idle.borrow_mut();
            if idle.len() < IDLE_CAP {
                idle.push(self);
            }
        });
        panic
    }
}

/// Suspends the currently running coroutine, returning control to whoever
/// called [`Coro::resume`]. The next `resume` continues right here, and its
/// token is this call's result.
///
/// # Panics
///
/// Panics when no coroutine is running on this thread: a blocking primitive
/// was reached from outside any run. (A [`VProc`] machine that calls one
/// *is* on a coroutine, the driver's; [`crate::sim::Ctx`] refuses it by
/// name before it gets here.)
pub fn yield_now() -> u64 {
    let inner = CURRENT.with(|c| c.get());
    assert!(!inner.is_null(), "vproc: blocking outside a coroutine");
    // SAFETY: we are executing on this coroutine's stack; parent_sp was
    // saved by the resume that is currently suspended beneath us. When the
    // switch returns a later resume is suspended there instead, so this
    // coroutine again has exclusive access to its state.
    unsafe {
        xk_vproc_switch(&mut (*inner).coro_sp, (*inner).parent_sp);
        (*inner).token
    }
}

/// Sets the fuel budget of the coroutine running on this thread
/// (`u64::MAX` = unlimited). The budget belongs to the *stack*: the
/// scheduler sets it when it starts a process's body on the driver's stack
/// and back to unlimited when the body ends there; if the body blocks
/// instead, the stack — and what is left of the budget — goes with the
/// process, and the next driver starts unlimited. A no-op off any
/// coroutine.
pub(crate) fn set_fuel(fuel: u64) {
    let p = CURRENT.with(Cell::get);
    if !p.is_null() {
        // SAFETY: as in `fuel_tick` — CURRENT is only set while that
        // coroutine is running on this thread, so the access is exclusive.
        unsafe { (*p).fuel_left = fuel };
    }
}

/// Burns one unit of fuel on the coroutine running on this thread, if any.
/// Returns `true` exactly once — on the tick that exhausts a finite budget —
/// at which point the caller kills the process (deterministically: the tick
/// count is a pure function of the schedule).
pub(crate) fn fuel_tick() -> bool {
    CURRENT.with(|c| {
        let p = c.get();
        if p.is_null() {
            return false;
        }
        // SAFETY: CURRENT is only set while that coroutine is running on
        // this thread, so the access is exclusive.
        let inner = unsafe { &mut *p };
        if inner.fuel_left == u64::MAX || inner.fuel_left == 0 {
            return false;
        }
        inner.fuel_left -= 1;
        inner.fuel_left == 0
    })
}

// ---------------------------------------------------------------------------
// Stackless virtual processes.
// ---------------------------------------------------------------------------

/// What a [`VProc`] machine does next: every variant is one of the declared
/// blocking points (or completion). Returned from [`VProc::resume`]; the
/// scheduler performs the block on the machine's behalf, which is what makes
/// a suspended machine pure data.
pub enum VStep {
    /// The process is complete; the scheduler retires it.
    Done,
    /// Suspend for `0` or more nanoseconds of virtual time (timer expiry /
    /// wire-delivery blocking point). `Sleep(0)` is a pure yield: the
    /// machine re-runs at the current instant, after already-queued events.
    Sleep(Nanos),
    /// Suspend until the semaphore grants a unit (semaphore-wait blocking
    /// point), or until `timeout` fires. The resume's
    /// [`crate::sim::WakeReason`] says which.
    Wait {
        /// The semaphore to P.
        sema: crate::sim::SharedSema,
        /// Optional timeout, as for [`crate::sim::SharedSema::p_timeout`].
        timeout: Option<Nanos>,
    },
}

/// A shepherd process encoded as an explicit state machine — the stackless
/// flavor of virtual process. `resume` runs from the last blocking point to
/// the next and returns it as a [`VStep`]; all state lives in `self`.
///
/// Machines may use every non-blocking [`crate::sim::Ctx`] facility
/// (charging, timers, spawning coroutines or machines, tracing) but must
/// *return* their blocking points rather than calling `SharedSema::p`/`Ctx::sleep`
/// (which require a stack to park; doing so panics).
///
/// [`VProc::fork`] makes a machine snapshot-capable: a machine suspended at
/// a timer blocking point round-trips through
/// [`crate::sim::Sim::snapshot`]/[`crate::sim::Sim::restore`] by forking its
/// state. Machines that return `None` (the default) simply make snapshots
/// at instants where they are alive an error, exactly like coroutines.
pub trait VProc {
    /// Runs from the previous blocking point to the next. `why` reports how
    /// the previous [`VStep`] concluded ([`crate::sim::WakeReason::Normal`]
    /// on first entry, after sleeps, and after semaphore grants;
    /// [`crate::sim::WakeReason::Timeout`] when a `Wait` timed out).
    fn resume(&mut self, ctx: &crate::sim::Ctx, why: crate::sim::WakeReason) -> VStep;

    /// Clones the machine's suspended state for a whole-sim snapshot.
    fn fork(&self) -> Option<Box<dyn VProc>> {
        None
    }

    /// Label for diagnostics.
    fn label(&self) -> &'static str {
        "vproc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{HostId, Sim, SimConfig};
    use std::rc::Rc;

    /// A coroutine running `f`, which first sets itself a budget of `fuel`,
    /// under a context nothing here looks at.
    fn coro(f: impl FnOnce() + 'static, fuel: u64) -> Coro {
        let ctx = Sim::new(SimConfig::inline_mode()).ctx(HostId(0));
        let body = move |_| {
            set_fuel(fuel);
            f()
        };
        Coro::new(Box::new(body), ctx)
    }

    /// Retires `c`, failing the test if its body panicked (an assertion
    /// inside a body surfaces here).
    fn retire_clean(c: Coro) {
        assert!(c.retire().is_none(), "coroutine body panicked");
    }

    #[test]
    fn coroutine_runs_yields_and_resumes() {
        let log = Rc::new(Cell::new(0));
        let l2 = Rc::clone(&log);
        let mut c = coro(
            move || {
                l2.set(1);
                assert_eq!(yield_now(), 7, "a yield returns its resume's token");
                l2.set(2);
                assert_eq!(yield_now(), 9);
                l2.set(3);
            },
            u64::MAX,
        );
        assert!(!c.resume(0));
        assert_eq!(log.get(), 1);
        assert!(!c.resume(7));
        assert_eq!(log.get(), 2);
        assert!(c.resume(9));
        assert_eq!(log.get(), 3);
        retire_clean(c);
    }

    #[test]
    fn nested_coroutines_interleave_correctly() {
        // A coroutine that resumes another coroutine: parent links nest.
        let mut inner_coro = coro(
            || {
                yield_now();
            },
            u64::MAX,
        );
        let mut outer = coro(
            move || {
                assert!(!inner_coro.resume(0));
                yield_now();
                assert!(inner_coro.resume(0));
                retire_clean(inner_coro);
            },
            u64::MAX,
        );
        assert!(!outer.resume(0));
        assert!(outer.resume(0));
        retire_clean(outer);
    }

    #[test]
    fn deep_recursion_fits_in_the_usable_region() {
        fn burn(n: u64) -> u64 {
            let local = [n; 16];
            if n == 0 {
                local[0]
            } else {
                burn(n - 1) + std::hint::black_box(local[15] - local[0])
            }
        }
        let mut c = coro(|| assert_eq!(std::hint::black_box(burn(500)), 0), u64::MAX);
        assert!(c.resume(0));
        retire_clean(c);
    }

    #[test]
    fn fuel_ticks_only_on_a_coroutine_and_exhausts_once() {
        assert!(!fuel_tick(), "no coroutine running: no tick");
        let hits = Rc::new(Cell::new(0));
        let h2 = Rc::clone(&hits);
        let mut c = coro(
            move || {
                for _ in 0..5 {
                    if fuel_tick() {
                        h2.set(h2.get() + 1);
                    }
                }
            },
            3,
        );
        assert!(c.resume(0));
        assert_eq!(hits.get(), 1, "exhaustion fires once");
    }

    #[test]
    fn a_panicking_body_is_caught_and_a_retired_coroutine_is_reused() {
        let mut c = coro(|| std::panic::panic_any(42u8), u64::MAX);
        assert!(c.resume(0), "the panic ends the body; no unwind escapes");
        let payload = c.retire().expect("the payload is handed over");
        assert_eq!(payload.downcast_ref::<u8>(), Some(&42));
        // The next coroutine on this thread runs on the retired one's stack.
        let before = IDLE.with(|idle| idle.borrow().len());
        assert!(before >= 1);
        let mut c = coro(|| {}, u64::MAX);
        assert_eq!(IDLE.with(|idle| idle.borrow().len()), before - 1);
        assert!(c.resume(0));
        retire_clean(c);
        assert_eq!(IDLE.with(|idle| idle.borrow().len()), before);
    }

    #[test]
    #[should_panic(expected = "blocking outside a coroutine")]
    fn yielding_off_coroutine_panics() {
        yield_now();
    }
}
