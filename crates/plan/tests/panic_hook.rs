//! A run that panics still leaves its run document. The panic hook is
//! process-global, so this binary holds one test.

use std::panic::catch_unwind;
use std::sync::{Arc, Mutex};
use xct_plan::{install_panic_hook, RunDocument, RunHeader};
use xct_telemetry::{Phase, Telemetry};

#[test]
fn a_panic_writes_the_document_with_the_header_as_it_then_stands() {
    let path = std::env::temp_dir().join(format!("xct_panic_hook_{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let telemetry = Telemetry::enabled();
    let header = Arc::new(Mutex::new(RunHeader::new("reconstruct", Vec::new())));
    install_panic_hook(Arc::clone(&header), &telemetry, path.clone());
    // Learned after the hook was installed, before the panic.
    header.lock().unwrap().iterations = Some(3);
    let iteration = telemetry.span(Phase::SolverIteration);
    telemetry.event("cgls.residual", 0.5);
    assert!(catch_unwind(|| panic!("rank 2 faulted")).is_err());
    drop(iteration);

    let doc = RunDocument::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    assert!(doc.reason.as_deref().unwrap().contains("rank 2 faulted"));
    assert_eq!(doc.header.iterations, Some(3));
    // The span was open at the panic: it is closed at the capture.
    assert_eq!(doc.log.spans.len(), 1);
    assert_eq!(doc.log.events.len(), 1);
    assert_eq!(doc.dropped, 0);
    std::fs::remove_file(&path).unwrap();
}
