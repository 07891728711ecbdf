-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'running_max'
-- data path: 4 nodes (2 soft, 2 hard), 1 pipeline stages
-- netlist: 6 cells, 16 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity running_max_dp_node1 is
  port (
    A0 : in signed(15 downto 0);
    mx_reg : in signed(15 downto 0);
    t2_out : out unsigned(0 downto 0)
  );
end entity running_max_dp_node1;

architecture rtl of running_max_dp_node1 is
  signal t2 : unsigned(0 downto 0);
begin
  t2 <= "1" when resize(A0, 17) > resize(mx_reg, 17) else "0";
  t2_out <= t2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity running_max_dp_mux_bb3 is
  port (
    A0_pipe : in signed(15 downto 0);
    mx_prev_pipe : in signed(15 downto 0);
    n6_pipe : in unsigned(0 downto 0);
    mx_fb_2_out : out signed(15 downto 0)
  );
end entity running_max_dp_mux_bb3;

architecture rtl of running_max_dp_mux_bb3 is
  signal mx_fb_2 : signed(15 downto 0);
begin
  mx_fb_2 <= A0_pipe when n6_pipe /= 0 else mx_prev_pipe;
  mx_fb_2_out <= mx_fb_2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity running_max_dp_node3 is
end entity running_max_dp_node3;

architecture rtl of running_max_dp_node3 is
begin
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity running_max_dp_pipe_bb3 is
  port (
    A0 : in signed(15 downto 0);
    mx_reg : in signed(15 downto 0);
    t2 : in unsigned(0 downto 0);
    A0_pipe_out : out signed(15 downto 0);
    mx_prev_pipe_out : out signed(15 downto 0);
    n6_pipe_out : out unsigned(0 downto 0)
  );
end entity running_max_dp_pipe_bb3;

architecture rtl of running_max_dp_pipe_bb3 is
  signal A0_pipe : signed(15 downto 0);
  signal mx_prev_pipe : signed(15 downto 0);
  signal n6_pipe : unsigned(0 downto 0);
begin
  A0_pipe <= A0;
  mx_prev_pipe <= mx_reg;
  n6_pipe <= t2;
  A0_pipe_out <= A0_pipe;
  mx_prev_pipe_out <= mx_prev_pipe;
  n6_pipe_out <= n6_pipe;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity running_max_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    valid : in std_logic;
    A0 : in signed(15 downto 0);
    M_o0 : out signed(15 downto 0);
    last : out signed(15 downto 0)
  );
end entity running_max_dp;

architecture rtl of running_max_dp is
  signal A0_pipe : signed(15 downto 0);
  signal mx_prev_pipe : signed(15 downto 0);
  signal t2 : unsigned(0 downto 0);
  signal n6_pipe : unsigned(0 downto 0);
  signal mx_fb_2 : signed(15 downto 0);
  signal n2_valid : unsigned(0 downto 0);
  signal mx_reg : signed(15 downto 0) := to_signed(-32768, 16);
begin
  n2_valid <= "1" when valid = '1' else "0";
  u_node1 : entity work.running_max_dp_node1
    port map (A0 => A0, mx_reg => mx_reg, t2_out => t2);
  u_mux_bb3 : entity work.running_max_dp_mux_bb3
    port map (A0_pipe => A0_pipe, mx_prev_pipe => mx_prev_pipe, n6_pipe => n6_pipe, mx_fb_2_out => mx_fb_2);
  u_node3 : entity work.running_max_dp_node3;
  u_pipe_bb3 : entity work.running_max_dp_pipe_bb3
    port map (A0 => A0, mx_reg => mx_reg, t2 => t2, A0_pipe_out => A0_pipe, mx_prev_pipe_out => mx_prev_pipe, n6_pipe_out => n6_pipe);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        if n2_valid /= 0 then
          mx_reg <= mx_fb_2;
        end if;
      end if;
    end if;
  end process;
  M_o0 <= mx_fb_2;
  last <= mx_fb_2;
end architecture rtl;
