package serve

import (
	"os"
	"os/signal"
	"syscall"
)

// OnSignals installs the two-stage shutdown convention shared by
// mndmst-serve and the TCP ranks of cmd/mndmst: the first SIGINT/SIGTERM
// invokes drain, a second invokes force. Both callbacks run on the
// watcher goroutine, so they must return promptly — drain should flip a
// flag or cancel a context, not block on the drain itself, or the
// escalation signal is never seen. The returned stop function unregisters the handler and
// joins the watcher; after a force callback the watcher has exited and
// stop only unregisters.
func OnSignals(drain, force func()) (stop func()) {
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		drained := false
		for {
			select {
			case <-sigs:
				if !drained {
					drained = true
					drain()
					continue
				}
				force()
				return
			case <-quit:
				return
			}
		}
	}()
	return func() {
		signal.Stop(sigs)
		close(quit)
		<-done
	}
}
