-- Generated by ROCCC (reproduction): RTL VHDL for kernel 'mul_acc'
-- data path: 5 nodes (3 soft, 2 hard), 2 pipeline stages
-- netlist: 9 cells, 58 register bits

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity mul_acc_dp_node1 is
end entity mul_acc_dp_node1;

architecture rtl of mul_acc_dp_node1 is
begin
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity mul_acc_dp_node2 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    A0 : in signed(11 downto 0);
    B0 : in signed(11 downto 0);
    acc_reg : in signed(31 downto 0);
    t5_out : out signed(31 downto 0)
  );
end entity mul_acc_dp_node2;

architecture rtl of mul_acc_dp_node2 is
  signal t4 : signed(23 downto 0);
  signal t4_s1 : signed(23 downto 0) := (others => '0');
  signal t5 : signed(31 downto 0);
begin
  t4 <= signed(resize(unsigned(resize(A0, 24)) * unsigned(resize(B0, 24)), 24));
  t5 <= acc_reg + resize(t4_s1, 32);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        t4_s1 <= t4;
      end if;
    end if;
  end process;
  t5_out <= t5;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity mul_acc_dp_mux_bb3 is
  port (
    acc_prev_pipe : in signed(31 downto 0);
    t5 : in signed(31 downto 0);
    nd_pipe_s1 : in unsigned(0 downto 0);
    acc_fb_2_out : out signed(31 downto 0)
  );
end entity mul_acc_dp_mux_bb3;

architecture rtl of mul_acc_dp_mux_bb3 is
  signal acc_fb_2 : signed(31 downto 0);
begin
  acc_fb_2 <= t5 when nd_pipe_s1 /= 0 else acc_prev_pipe;
  acc_fb_2_out <= acc_fb_2;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity mul_acc_dp_node4 is
end entity mul_acc_dp_node4;

architecture rtl of mul_acc_dp_node4 is
begin
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity mul_acc_dp_pipe_bb3 is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    nd : in unsigned(0 downto 0);
    acc_reg : in signed(31 downto 0);
    acc_prev_pipe_out : out signed(31 downto 0);
    nd_pipe_s1_out : out unsigned(0 downto 0)
  );
end entity mul_acc_dp_pipe_bb3;

architecture rtl of mul_acc_dp_pipe_bb3 is
  signal acc_prev_pipe : signed(31 downto 0);
  signal nd_pipe_s1 : unsigned(0 downto 0) := (others => '0');
begin
  acc_prev_pipe <= acc_reg;
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        nd_pipe_s1 <= nd;
      end if;
    end if;
  end process;
  acc_prev_pipe_out <= acc_prev_pipe;
  nd_pipe_s1_out <= nd_pipe_s1;
end architecture rtl;

library ieee;
use ieee.std_logic_1164.all;
use ieee.numeric_std.all;

entity mul_acc_dp is
  port (
    clk : in std_logic;
    ce  : in std_logic;
    valid : in std_logic;
    A0 : in signed(11 downto 0);
    B0 : in signed(11 downto 0);
    nd : in unsigned(0 downto 0);
    s_out : out signed(31 downto 0)
  );
end entity mul_acc_dp;

architecture rtl of mul_acc_dp is
  signal acc_prev_pipe : signed(31 downto 0);
  signal t5 : signed(31 downto 0);
  signal nd_pipe_s1 : unsigned(0 downto 0);
  signal acc_fb_2 : signed(31 downto 0);
  signal n4_valid : unsigned(0 downto 0);
  signal valid_s1 : unsigned(0 downto 0) := (others => '0');
  signal acc_reg : signed(31 downto 0) := (others => '0');
begin
  n4_valid <= "1" when valid = '1' else "0";
  u_node1 : entity work.mul_acc_dp_node1;
  u_node2 : entity work.mul_acc_dp_node2
    port map (clk => clk, ce => ce, A0 => A0, B0 => B0, acc_reg => acc_reg, t5_out => t5);
  u_mux_bb3 : entity work.mul_acc_dp_mux_bb3
    port map (acc_prev_pipe => acc_prev_pipe, t5 => t5, nd_pipe_s1 => nd_pipe_s1, acc_fb_2_out => acc_fb_2);
  u_node4 : entity work.mul_acc_dp_node4;
  u_pipe_bb3 : entity work.mul_acc_dp_pipe_bb3
    port map (clk => clk, ce => ce, nd => nd, acc_reg => acc_reg, acc_prev_pipe_out => acc_prev_pipe, nd_pipe_s1_out => nd_pipe_s1);
  process (clk)
  begin
    if rising_edge(clk) then
      if ce = '1' then
        valid_s1 <= n4_valid;
        if valid_s1 /= 0 then
          acc_reg <= acc_fb_2;
        end if;
      end if;
    end if;
  end process;
  s_out <= acc_fb_2;
end architecture rtl;
