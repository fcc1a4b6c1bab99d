// Fixture: NW-S008 — a second lock while a bound guard is live.
fn transfer(a: &Mutex<u64>, b: &Mutex<u64>) {
    let mut from = lock_unpoisoned(a);
    let mut to = lock_unpoisoned(b); // line 4: fires NW-S008
    *to += std::mem::take(&mut *from);
}

fn transfer_in_turn(a: &Mutex<u64>, b: &Mutex<u64>) {
    let mut from = lock_unpoisoned(a);
    let v = std::mem::take(&mut *from);
    drop(from);
    *lock_unpoisoned(b) += v; // silent: the first guard was dropped
}
