// Package fanout pins that the ctxsend analyzer's scope covers the
// fan-out core, where the engines' reader goroutines now live.
package fanout

type peer struct {
	req chan struct{}
	res chan int
}

// bareReader answers each request token with an unguarded send.
func bareReader(p *peer) {
	go func() {
		for range p.req {
			p.res <- 1 // want "bare channel send in an engine goroutine"
		}
	}()
}

// reader carries the non-blocking argument on the line it protects.
func reader(p *peer) {
	go func() {
		for range p.req {
			//lint:topk ctxsend capacity-1 channel under the owed<=1 reply discipline; a slot is always free (fixture)
			p.res <- 1
		}
	}()
}
