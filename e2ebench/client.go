package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// Conn is one keep-alive HTTP/1.1 connection to the server. Requests
// are written by hand (a few header lines); responses are parsed by
// net/http's reader, which handles chunked bodies.
type Conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	wbuf []byte
	// member is this connection's member session: each connection logs
	// in once.
	member string
}

// Response is what the generator keeps of one reply.
type Response struct {
	Status int
	Body   []byte
	Cookie string // value of a WSESSION Set-Cookie, if any
}

func dial(addr string) (*Conn, error) {
	c := &Conn{addr: addr}
	return c, c.redial()
}

func (c *Conn) redial() error {
	if c.c != nil {
		c.c.Close()
	}
	nc, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
	if err != nil {
		return err
	}
	c.c = nc
	c.br = bufio.NewReaderSize(nc, 64<<10)
	return nil
}

// Close closes the connection.
func (c *Conn) Close() {
	if c.c != nil {
		c.c.Close()
	}
}

// Do sends one request and reads the whole response. post sends the
// form as an application/x-www-form-urlencoded body.
func (c *Conn) Do(method, target, cookie string, id uint64, form string) (*Response, error) {
	b := c.wbuf[:0]
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, target...)
	b = append(b, " HTTP/1.1\r\nHost: bench\r\n"...)
	if cookie != "" {
		b = append(b, "Cookie: WSESSION="...)
		b = append(b, cookie...)
		b = append(b, "\r\n"...)
	}
	b = append(b, reqHeader+": "...)
	b = strconv.AppendUint(b, id, 10)
	b = append(b, "\r\n"...)
	if method == http.MethodPost {
		b = append(b, "Content-Type: application/x-www-form-urlencoded\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(form)), 10)
		b = append(b, "\r\n\r\n"...)
		b = append(b, form...)
	} else {
		b = append(b, "\r\n"...)
	}
	c.wbuf = b
	if _, err := c.c.Write(b); err != nil {
		return nil, fmt.Errorf("write %s: %w", target, err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", target, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("body %s: %w", target, err)
	}
	out := &Response{Status: resp.StatusCode, Body: body}
	for _, ck := range resp.Cookies() {
		if ck.Name == "WSESSION" {
			out.Cookie = ck.Value
		}
	}
	if resp.Close {
		if err := c.redial(); err != nil {
			return out, err
		}
	}
	return out, nil
}
